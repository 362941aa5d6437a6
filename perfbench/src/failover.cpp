// failover: two-worker in-process Router fleets over piped pwu_serve
// workers, each with one tuning session homed on shard-0, which is armed
// to die mid-stream. Fleets alternate warm (standby replication, the shadow
// is promoted) and cold (checkpoint resume on the survivor), and kills
// alternate between two kill points:
//
//   protocol.ask        before an ask is applied      -> replay path
//   atomic_write.done   after a tell is applied and   -> already-applied
//                       its checkpoint is on disk        resolution path
//
// A recovery sample is the wall time of the request that detects the
// death, until its answer arrives. Every killed stream must equal the
// stream of an unkilled control fleet, and every sample must have taken
// its intended path (promotion, or cold resume).

#include <cstdio>
#include <filesystem>
#include <memory>

#include "closed_loop.hpp"
#include "layers.hpp"
#include "router/hash_ring.hpp"
#include "router/router.hpp"
#include "service/session_manager.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kFleets = 40;  // 20 warm + 20 cold: p50 with 10 beyond
const SessionShape kShape{"gesummv", 6, 1, 36, 20, 600};

struct FleetPlan {
  bool warm = false;
  bool tell_kill = false;
  int hits = 0;  // kill on pass hits + 1 of the kill point
  std::string prefix;
  std::uint64_t client_seed = 0;
};

struct Drive {
  std::vector<std::string> stream;
  std::vector<double> ask_ms;
  std::vector<double> tell_ms;
  double recovery_ms = -1.0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::string error;
};

/// One session, start to close, through `router`.
Drive drive(pwu::router::Router& router, const FleetPlan& plan,
            Tracer& tracer) {
  Drive d;
  TuningClient client(plan.prefix, {kShape}, 0, plan.client_seed);
  const auto start = Clock::now();
  for (;;) {
    const OpKind kind = client.next_kind();
    const json::Value request = client.next_request();
    const std::uint64_t failovers_before = router.stats().failovers;
    const auto t0 = Clock::now();
    json::Value response;
    {
      Tracer::Span span(tracer, "router.handle", d.requests);
      response = router.handle(request);
    }
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    d.requests += 1;
    if (failovers_before == 0 && router.stats().failovers > 0) {
      d.recovery_ms = ms;
    }
    d.stream.push_back(canonical_reply(kind, response));
    if (!client.on_response(response)) {
      d.failed += 1;
      d.error = response.dump();
      break;
    }
    if (kind == OpKind::Ask) d.ask_ms.push_back(ms);
    if (kind == OpKind::Tell) d.tell_ms.push_back(ms);
    if (kind == OpKind::Close) break;
  }
  d.wall_s = seconds_between(start, Clock::now());
  return d;
}

std::unique_ptr<pwu::router::Router> make_fleet(const Options& opt,
                                                const std::string& dir,
                                                bool standby,
                                                const std::string& kill) {
  std::vector<pwu::router::ShardSpec> shards;
  for (int i = 0; i < 2; ++i) {
    pwu::router::ShardSpec spec;
    spec.name = "shard-" + std::to_string(i);
    spec.checkpoint_dir = dir + "/" + spec.name;
    fs::create_directories(spec.checkpoint_dir);
    // exec: the transport's pid is the worker itself. A killed worker's
    // abort message is expected noise, so its stderr is dropped.
    std::string command = "exec '";
    command += (fs::path(opt.bin_dir) / "pwu_serve").string();
    command += "' --checkpoint-dir '";
    command += spec.checkpoint_dir;
    command += "' --checkpoint-every 1";
    if (i == 0 && !kill.empty()) command += " --kill-at " + kill;
    command += " 2>/dev/null";
    spec.transport =
        std::make_unique<pwu::service::PipeTransport>(command, 60.0);
    shards.push_back(std::move(spec));
  }
  pwu::router::RouterOptions options;
  options.standby = standby;
  return std::make_unique<pwu::router::Router>(std::move(shards), options);
}

/// Health probe: starts both workers (transports spawn lazily).
void probe(pwu::router::Router& router) {
  const json::Value health =
      router.handle(json::parse(R"({"op":"health"})"));
  if (!health.bool_or("ok", false)) {
    throw std::runtime_error("fleet health probe failed: " + health.dump());
  }
}

/// Whether the fleet's counters show the intended recovery path.
bool took_intended_path(const FleetPlan& plan,
                        const pwu::router::RouterStats& s) {
  if (s.failovers != 1 || s.standby_fallbacks != 0) return false;
  const bool warm_ok = plan.warm ? s.promotions == 1 && s.rehomes == 0
                                 : s.promotions == 0 && s.rehomes == 1;
  // An ask dies before it is applied: replayed on the new home. A tell
  // dies after it is applied and checkpointed: the cold path answers it
  // from the resumed image; the promoted shadow never saw it, so the warm
  // path re-executes it.
  const bool kill_ok = !plan.tell_kill || plan.warm
                           ? s.replays == 1 && s.synthesized == 0
                           : s.synthesized == 1 && s.replays == 0;
  return warm_ok && kill_ok;
}

}  // namespace

Report run_failover(const Options& opt) {
  Report report;
  Tracer tracer(opt.trace);
  const auto run_start = Clock::now();

  pwu::router::HashRing ring;
  ring.add("shard-0");
  ring.add("shard-1");
  pwu::util::Rng rng(opt.seed);
  std::vector<FleetPlan> plans(kFleets);
  for (int i = 0; i < kFleets; ++i) {
    FleetPlan& plan = plans[static_cast<std::size_t>(i)];
    plan.warm = i % 2 == 0;
    plan.tell_kill = (i / 2) % 2 == 1;
    plan.hits = 8 + static_cast<int>(rng.index(16));
    plan.client_seed = rng.next_u64();
    // The session (TuningClient names it <prefix>s0) must be homed on the
    // shard that dies.
    for (int j = 0;; ++j) {
      plan.prefix = "f";
      plan.prefix += std::to_string(i);
      plan.prefix += '-';
      plan.prefix += std::to_string(j);
      plan.prefix += '-';
      if (ring.owner(plan.prefix + "s0") == "shard-0") break;
    }
  }

  std::vector<double> spawn_s;
  std::vector<double> ask_ms;
  std::vector<double> tell_ms;
  // Per-fleet p50s and request rates: their medians over the fleets keep
  // a burst of disk or CPU noise from moving the run's numbers.
  std::vector<double> fleet_ask_p50;
  std::vector<double> fleet_tell_p50;
  std::vector<double> fleet_req_per_s;
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::vector<std::vector<std::string>> streams;
  pwu::router::RouterStats totals;
  std::uint64_t requests = 0;
  std::size_t wrong_paths = 0;
  for (int i = 0; i < kFleets; ++i) {
    const FleetPlan& plan = plans[static_cast<std::size_t>(i)];
    const std::string dir = opt.work_dir + "/fleet-" + std::to_string(i);
    const std::string kill =
        std::string(plan.tell_kill ? "atomic_write.done:" : "protocol.ask:") +
        std::to_string(plan.tell_kill ? plan.hits + 1 : plan.hits);
    const auto spawn_start = Clock::now();
    auto router = make_fleet(opt, dir, plan.warm, kill);
    probe(*router);
    spawn_s.push_back(seconds_between(spawn_start, Clock::now()));

    Drive d = drive(*router, plan, tracer);
    const pwu::router::RouterStats stats = router->stats();
    router->handle(json::parse(R"({"op":"shutdown"})"));
    router.reset();

    report.attempted += d.requests + 1;  // every request, plus the kill
    report.failed += d.failed;
    requests += d.requests;
    ask_ms.insert(ask_ms.end(), d.ask_ms.begin(), d.ask_ms.end());
    tell_ms.insert(tell_ms.end(), d.tell_ms.begin(), d.tell_ms.end());
    if (d.ask_ms.size() >= 20) {
      fleet_ask_p50.push_back(percentile(d.ask_ms, 0.5));
    }
    if (d.tell_ms.size() >= 20) {
      fleet_tell_p50.push_back(percentile(d.tell_ms, 0.5));
    }
    fleet_req_per_s.push_back(static_cast<double>(d.requests) / d.wall_s);
    if (!d.error.empty()) {
      report.fail_check("failover fleet " + std::to_string(i) +
                        ": request failed: " + d.error);
    }
    if (d.recovery_ms < 0.0 || !took_intended_path(plan, stats)) {
      report.failed += 1;  // a kill whose recovery took the wrong path
      wrong_paths += 1;
      std::printf("  fleet %d (%s, %s kill): failovers %llu promotions %llu "
                  "rehomes %llu replays %llu synthesized %llu fallbacks "
                  "%llu\n",
                  i, plan.warm ? "warm" : "cold",
                  plan.tell_kill ? "tell" : "ask",
                  static_cast<unsigned long long>(stats.failovers),
                  static_cast<unsigned long long>(stats.promotions),
                  static_cast<unsigned long long>(stats.rehomes),
                  static_cast<unsigned long long>(stats.replays),
                  static_cast<unsigned long long>(stats.synthesized),
                  static_cast<unsigned long long>(stats.standby_fallbacks));
    } else {
      (plan.warm ? warm_ms : cold_ms).push_back(d.recovery_ms);
    }
    totals.failovers += stats.failovers;
    totals.promotions += stats.promotions;
    totals.rehomes += stats.rehomes;
    totals.replays += stats.replays;
    totals.synthesized += stats.synthesized;
    totals.standby_fallbacks += stats.standby_fallbacks;
    streams.push_back(std::move(d.stream));

    if (opt.trace) {
      // Cold resume of the dead primary's newest image, in-process.
      pwu::service::SessionManager manager;
      const std::string image = dir + "/shard-0/" + plan.prefix + "s0.ckpt";
      Tracer::Span span(tracer, "ckpt.resume");
      manager.resume_from_file(plan.prefix + "s0", image);
    }
  }

  // Control: one unkilled fleet drives every session again.
  {
    Tracer quiet(false);
    auto control = make_fleet(opt, opt.work_dir + "/control", true, "");
    for (int i = 0; i < kFleets; ++i) {
      Drive d = drive(*control, plans[static_cast<std::size_t>(i)], quiet);
      std::vector<std::string>& got = streams[static_cast<std::size_t>(i)];
      if (opt.inject_mismatch && i == 0 && !got.empty()) got.back() += "!";
      if (d.stream != got) {
        report.fail_check("failover fleet " + std::to_string(i) +
                          ": stream differs from the unkilled control");
      }
    }
    control->handle(json::parse(R"({"op":"shutdown"})"));
  }

  std::printf("failover: %d two-worker fleets (%zu warm + %zu cold samples "
              "on the intended path, %zu wrong), %llu requests; session "
              "%s n_init %zu n_batch %zu n_max %zu trees %zu pool %zu\n",
              kFleets, warm_ms.size(), cold_ms.size(), wrong_paths,
              static_cast<unsigned long long>(requests),
              kShape.workload.c_str(), kShape.n_init, kShape.n_batch,
              kShape.n_max, kShape.trees, kShape.pool_size);
  std::printf("  recovery ms: warm p50 %.3f, cold p50 %.3f (n=%zu/%zu)\n",
              warm_ms.size() >= 20 ? percentile(warm_ms, 0.5) : 0.0,
              cold_ms.size() >= 20 ? percentile(cold_ms, 0.5) : 0.0,
              warm_ms.size(), cold_ms.size());

  auto& m = report.metrics;
  if (!opt.trace) {
    m["setup_s"] = quartiles(spawn_s).median;
    m["ask_ms_p50"] = percentile(fleet_ask_p50, 0.5, 0);
    m["ask_ms_p99"] = percentile(ask_ms, 0.99);
    m["tell_ms_p50"] = percentile(fleet_tell_p50, 0.5, 0);
    m["tell_ms_p99"] = percentile(tell_ms, 0.99);
    m["req_per_s"] = percentile(fleet_req_per_s, 0.5, 0);
    return report;
  }
  m["recovery_warm_ms_p50"] = percentile(warm_ms, 0.50);
  m["recovery_cold_ms_p50"] = percentile(cold_ms, 0.50);
  m["router.promotions"] = static_cast<double>(totals.promotions);
  m["router.rehomes"] = static_cast<double>(totals.rehomes);
  m["router.replays"] = static_cast<double>(totals.replays);
  m["router.synthesized"] = static_cast<double>(totals.synthesized);
  m["router.standby_fallbacks"] =
      static_cast<double>(totals.standby_fallbacks);
  m["failover.warm_ratio"] =
      totals.failovers > 0 ? static_cast<double>(totals.promotions) /
                                 static_cast<double>(totals.failovers)
                           : 0.0;
  finish_trace(tracer, opt, seconds_between(run_start, Clock::now()), 0,
               report);
  return report;
}

}  // namespace perfbench
