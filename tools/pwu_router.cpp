// pwu_router — sharded front-end for a fleet of pwu_serve workers.
//
// Speaks the same JSON-lines protocol as pwu_serve on stdin/stdout, so
// clients (pwu_client included) cannot tell it from a single server —
// except that sessions spread across N worker processes by consistent
// hashing, and a worker crash is survived: the router resumes the dead
// shard's sessions from their auto-checkpoints onto the survivors,
// bit-identically, and answers the interrupted request exactly once.
//
//   pwu_router --workers 4 --checkpoint-dir /var/lib/pwu
//   pwu_router --workers 2 --checkpoint-dir ckpt \
//       --worker-cmd './pwu_serve --max-pending-asks 8'
//
// Each worker runs `WORKER_CMD --checkpoint-dir DIR/shard-<i>
// --checkpoint-every 1` ({i} in WORKER_CMD expands to the shard index,
// e.g. to give shards distinct log files or kill schedules). Checkpointing
// every tell is what makes single-request failover loss-free, so the
// router always forces it on.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "router/router.hpp"
#include "service/transport.hpp"

namespace {

bool parse_count(const char* text, long& out) {
  char* end = nullptr;
  out = std::strtol(text, &end, 10);
  return end != text && *end == '\0' && out >= 0;
}

std::string replace_all(std::string text, const std::string& what,
                        const std::string& with) {
  std::size_t pos = 0;
  while ((pos = text.find(what, pos)) != std::string::npos) {
    text.replace(pos, what.size(), with);
    pos += with.size();
  }
  return text;
}

/// Single-quote for /bin/sh -c (paths with spaces survive; embedded
/// single quotes use the '\'' idiom).
std::string shell_quote(const std::string& text) {
  std::string out = "'";
  for (const char c : text) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

int usage(int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: pwu_router --workers N --checkpoint-dir DIR\n"
         "                  [--worker-cmd CMD]    command per worker; {i} "
         "expands to the shard index\n"
         "                                        (default: pwu_serve next "
         "to this binary)\n"
         "                  [--vnodes K]          virtual nodes per shard "
         "on the hash ring (default 128)\n"
         "                  [--timeout SEC]       per-response worker "
         "deadline (default 30; a late worker\n"
         "                                        is treated as dead and "
         "failed over)\n"
         "                  [--retries N] [--backoff MS]   overloaded-"
         "response retry policy\n"
         "                  [--retry-after-ms MS] back-off hint on "
         "redirected responses (default 100)\n"
         "                  [--no-replay]         answer redirected instead "
         "of replaying in-flight\n"
         "                                        requests after a shard "
         "death\n"
         "                  [--seed S]            jitter stream seed\n"
         "                  [--frame]             speak checksummed pwu1 "
         "framing to the workers\n"
         "                                        (corrupt replies are "
         "detected and resent instead\n"
         "                                        of poisoning a session)\n"
         "                  [--standby]           warm-standby replication: "
         "stream acked ops to each\n"
         "                                        session's ring successor "
         "and promote its live shadow\n"
         "                                        on primary death\n"
         "                  [--replication-lag-max N]  flush the standby "
         "outbox past N queued ops\n"
         "                                        (default 4; 0 = "
         "synchronous)\n"
         "                  [--max-replay-log N]  force a checkpoint past N "
         "acked-undurable asks\n"
         "                                        (default 64)\n"
         "Reads one JSON request per line on stdin, writes one JSON "
         "response per line on stdout.\n"
         "{\"op\":\"grow\",\"shard\":\"NAME\"} spawns one more worker (same "
         "worker-cmd, {i} = NAME),\n"
         "moves each session the grown ring assigns to it (its old worker "
         "checkpoints it into the\n"
         "new worker's directory under --checkpoint-dir, the new worker "
         "resumes it), then flips\n"
         "ring ownership.\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  long workers = 0;
  std::string worker_cmd;
  std::string checkpoint_dir;
  double timeout_seconds = 30.0;
  pwu::router::RouterOptions options;
  pwu::router::ShardClientOptions client_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long v = 0;
    if (arg == "--workers" && i + 1 < argc) {
      if (!parse_count(argv[++i], v) || v == 0) {
        std::cerr << "pwu_router: --workers expects a positive integer\n";
        return 2;
      }
      workers = v;
    } else if (arg == "--worker-cmd" && i + 1 < argc) {
      worker_cmd = argv[++i];
    } else if (arg == "--checkpoint-dir" && i + 1 < argc) {
      checkpoint_dir = argv[++i];
    } else if (arg == "--vnodes" && i + 1 < argc) {
      if (!parse_count(argv[++i], v) || v == 0) {
        std::cerr << "pwu_router: --vnodes expects a positive integer\n";
        return 2;
      }
      options.vnodes = static_cast<std::size_t>(v);
    } else if (arg == "--timeout" && i + 1 < argc) {
      timeout_seconds = std::strtod(argv[++i], nullptr);
      if (!(timeout_seconds > 0.0)) {
        std::cerr << "pwu_router: --timeout expects a positive number of "
                     "seconds\n";
        return 2;
      }
    } else if (arg == "--retries" && i + 1 < argc) {
      if (!parse_count(argv[++i], v)) {
        std::cerr << "pwu_router: --retries expects a non-negative integer\n";
        return 2;
      }
      client_options.retries = static_cast<int>(v);
    } else if (arg == "--backoff" && i + 1 < argc) {
      if (!parse_count(argv[++i], v)) {
        std::cerr << "pwu_router: --backoff expects a non-negative integer\n";
        return 2;
      }
      client_options.backoff_ms = static_cast<int>(v);
    } else if (arg == "--retry-after-ms" && i + 1 < argc) {
      if (!parse_count(argv[++i], v)) {
        std::cerr << "pwu_router: --retry-after-ms expects a non-negative "
                     "integer\n";
        return 2;
      }
      options.retry_after_ms = v;
    } else if (arg == "--no-replay") {
      options.replay_in_flight = false;
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!parse_count(argv[++i], v)) {
        std::cerr << "pwu_router: --seed expects a non-negative integer\n";
        return 2;
      }
      client_options.jitter_seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--frame") {
      options.frame = true;
    } else if (arg == "--standby") {
      options.standby = true;
    } else if (arg == "--replication-lag-max" && i + 1 < argc) {
      if (!parse_count(argv[++i], v)) {
        std::cerr << "pwu_router: --replication-lag-max expects a "
                     "non-negative integer (0 = synchronous)\n";
        return 2;
      }
      options.replication_lag_max = static_cast<std::size_t>(v);
    } else if (arg == "--max-replay-log" && i + 1 < argc) {
      if (!parse_count(argv[++i], v) || v == 0) {
        std::cerr << "pwu_router: --max-replay-log expects a positive "
                     "integer\n";
        return 2;
      }
      options.max_replay_log = static_cast<std::size_t>(v);
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::cerr << "pwu_router: unrecognized argument: " << arg << "\n";
      return usage(2);
    }
  }
  if (workers == 0 || checkpoint_dir.empty()) {
    std::cerr << "pwu_router: --workers and --checkpoint-dir are required\n";
    return usage(2);
  }
  if (worker_cmd.empty()) {
    // Default to the pwu_serve that shipped alongside this binary.
    const std::string self = argv[0];
    const std::size_t slash = self.rfind('/');
    worker_cmd = slash == std::string::npos
                     ? "pwu_serve"
                     : shell_quote(self.substr(0, slash + 1) + "pwu_serve");
  }

  try {
    std::vector<pwu::router::ShardSpec> shards;
    shards.reserve(static_cast<std::size_t>(workers));
    for (long i = 0; i < workers; ++i) {
      const std::string index = std::to_string(i);
      const std::string shard_dir = checkpoint_dir + "/shard-" + index;
      std::filesystem::create_directories(shard_dir);
      pwu::router::ShardSpec spec;
      spec.name = "shard-" + index;
      spec.checkpoint_dir = shard_dir;
      spec.transport = std::make_unique<pwu::service::PipeTransport>(
          replace_all(worker_cmd, "{i}", index) + " --checkpoint-dir " +
              shell_quote(shard_dir) + " --checkpoint-every 1",
          timeout_seconds);
      shards.push_back(std::move(spec));
    }
    pwu::router::Router router(std::move(shards), options, client_options);
    // The "grow" op spawns one more worker the same way the initial fleet
    // was built; {i} expands to the new shard's name instead of an index.
    router.set_grow_factory(
        [worker_cmd, checkpoint_dir,
         timeout_seconds](const std::string& name) {
          const std::string shard_dir = checkpoint_dir + "/" + name;
          std::filesystem::create_directories(shard_dir);
          pwu::router::ShardSpec spec;
          spec.name = name;
          spec.checkpoint_dir = shard_dir;
          spec.transport = std::make_unique<pwu::service::PipeTransport>(
              replace_all(worker_cmd, "{i}", name) + " --checkpoint-dir " +
                  shell_quote(shard_dir) + " --checkpoint-every 1",
              timeout_seconds);
          return spec;
        });
    pwu::router::run_router_loop(std::cin, std::cout, router);
  } catch (const std::exception& e) {
    std::cerr << "pwu_router: fatal: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
