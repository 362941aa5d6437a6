// serve_durable and serve_model: K = 32 closed-loop tuning clients over one
// pipelined connection.
//
//   serve_durable  pwu_router --workers 3 --standby --frame (workers
//                  checkpoint every tell); light sessions, so the wire,
//                  JSON, router dispatch, replication and per-tell fsync
//                  dominate.
//   serve_model    one pwu_serve --threads <nproc-1>, no router, no
//                  checkpoints; heavy sessions, so forest refits and pool
//                  scoring dominate and durability is bypassed.
//
// Every run checks each session's reply stream against an in-process
// handle_request reference. The traced run then replays the first sessions'
// logged requests one at a time, one hop shorter per rung:
//
//   rs  AskTellSession public calls (rf.fit, rf.score, core.select)
//   r0  SessionManager calls (+ explicit checkpoint and atomic_write_file)
//   r1  service::handle_request (in-process transport)
//   r2  one piped pwu_serve
//   r3  in-process Router over piped workers   (serve_model: one worker)
//   r4  the pwu_router process                 (serve_durable only)
//
// and prints the per-hop table: each hop's self time is the difference
// between adjacent rungs.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "closed_loop.hpp"
#include "layers.hpp"
#include "router/router.hpp"
#include "service/protocol.hpp"
#include "service/session_manager.hpp"
#include "timed_session.hpp"
#include "space/pool.hpp"
#include "util/fs_atomic.hpp"
#include "workloads.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace svc = pwu::service;

constexpr std::size_t kClients = 32;
constexpr int kSetupRounds = 15;
/// Asks the traced replay covers (so session.ask p99 has its samples).
constexpr std::size_t kReplayAsks = 1000;

struct ServeConfig {
  const char* name;
  std::vector<SessionShape> mix;
  bool durable = false;
};

ServeConfig durable_config() {
  ServeConfig c;
  c.name = "serve_durable";
  for (const char* w : {"gesummv", "atax", "kripke"}) {
    c.mix.push_back({w, 5, 1, 30, 8, 150});
  }
  c.durable = true;
  return c;
}

ServeConfig model_config() {
  ServeConfig c;
  c.name = "serve_model";
  for (const char* w : {"atax", "adi", "hypre"}) {
    c.mix.push_back({w, 8, 4, 40, 100, 4000});
  }
  return c;
}

unsigned serve_threads(const Options& opt) {
  return std::max(1u, opt.threads - 1);
}

std::string serve_bin(const Options& opt) {
  return (fs::path(opt.bin_dir) / "pwu_serve").string();
}

std::vector<std::string> fleet_argv(const Options& opt,
                                    const ServeConfig& cfg,
                                    const std::string& dir) {
  if (cfg.durable) {
    return {(fs::path(opt.bin_dir) / "pwu_router").string(),
            "--workers", "3", "--standby", "--frame", "--checkpoint-dir", dir};
  }
  return {serve_bin(opt), "--threads", std::to_string(serve_threads(opt))};
}

std::vector<std::string> worker_argv(const Options& opt,
                                     const ServeConfig& cfg,
                                     const std::string& dir) {
  if (cfg.durable) {
    fs::create_directories(dir);
    return {serve_bin(opt), "--checkpoint-dir", dir, "--checkpoint-every",
            "1"};
  }
  return {serve_bin(opt), "--threads", std::to_string(serve_threads(opt))};
}

/// A server process on a pipe, exec'd so the transport's pid is the server
/// itself, and stopped with a shutdown request on every path.
class Server {
 public:
  explicit Server(const std::vector<std::string>& argv)
      : pipe_(command(argv), 60.0) {}
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  svc::Transport& pipe() { return pipe_; }

  /// Sends a shutdown request and reads until the process closes its
  /// output: a pwu_router has then reaped its workers, and the transport's
  /// teardown reaps the router.
  void stop() {
    if (stopped_) return;  // a later send would respawn the server
    stopped_ = true;
    try {
      pipe_.send(R"({"op":"shutdown"})");
      for (;;) pipe_.recv();
    } catch (const svc::TransportError&) {
      // End of output (or a dead server): the transport has torn down.
    }
  }

 private:
  static std::string command(const std::vector<std::string>& argv) {
    std::string out = "exec";
    for (const std::string& a : argv) out += " '" + a + "'";
    return out;
  }

  svc::PipeTransport pipe_;
  bool stopped_ = false;
};

/// Spawns the fleet and waits until it answers a health probe (which
/// starts every worker). Returns the spawn wall time.
double spawn(std::unique_ptr<Server>& server,
             const std::vector<std::string>& argv) {
  const auto start = Clock::now();
  server = std::make_unique<Server>(argv);
  const json::Value health =
      json::parse(server->pipe().request(R"({"op":"health"})"));
  if (!health.bool_or("ok", false)) {
    throw std::runtime_error("fleet health probe failed: " + health.dump());
  }
  return seconds_between(start, Clock::now());
}

/// Router::handle behind the Transport interface (rung r3).
class RouterTransport : public svc::Transport {
 public:
  explicit RouterTransport(pwu::router::Router& router) : router_(router) {}
  void send(const std::string& line) override {
    replies_.push_back(router_.handle(json::parse(line)).dump());
  }
  std::string recv() override {
    std::string line = std::move(replies_.front());
    replies_.erase(replies_.begin());
    return line;
  }

 private:
  pwu::router::Router& router_;
  std::vector<std::string> replies_;
};

/// Rung rs: the logged sessions driven through AskTellSession directly.
/// Builds each session exactly as SessionManager::create does.
ReplayResult replay_sessions(const RequestLog& log,
                             const std::vector<bool>& chosen,
                             pwu::util::ThreadPool* workers, Tracer& tracer,
                             std::size_t& rows_scored) {
  ReplayResult result;
  std::map<std::size_t, std::unique_ptr<svc::AskTellSession>> sessions;
  std::map<std::size_t, std::unique_ptr<TimedSession>> steppers;
  for (const RequestLog::Entry& entry : log.entries) {
    if (!chosen[entry.session]) continue;
    const json::Value request = json::parse(entry.request);
    const auto start = Clock::now();
    std::string got;
    if (entry.kind == OpKind::Create) {
      const svc::SessionSpec spec = svc::spec_from_json(request);
      const auto workload = pwu::workloads::make_workload(spec.workload);
      pwu::util::Rng master(spec.seed);
      pwu::util::Rng split_rng = master.fork();
      pwu::space::PoolSplit split = pwu::space::make_pool_split(
          workload->space(), spec.pool_size, spec.test_size, split_rng);
      pwu::util::Rng run_rng = master.fork();
      const std::uint64_t session_seed = run_rng.next_u64();
      auto session = std::make_unique<svc::AskTellSession>(
          workload->space(), svc::StrategySpec{spec.strategy, spec.alpha},
          spec.learner, std::move(split.pool), session_seed, workers);
      steppers[entry.session] =
          std::make_unique<TimedSession>(*session, tracer, workers);
      sessions[entry.session] = std::move(session);
    } else if (entry.kind == OpKind::Ask) {
      double s = 0.0;
      const auto candidates = steppers.at(entry.session)->ask(0, s);
      json::Array arr;
      for (const svc::Candidate& c : candidates) {
        arr.push_back(svc::candidate_to_json(c));
      }
      got = json::Value(std::move(arr)).dump();
    } else if (entry.kind == OpKind::Tell) {
      steppers.at(entry.session)
          ->tell(svc::configuration_from_json(request.at("levels")),
                 request.at("time").as_number());
    } else {
      rows_scored += steppers.at(entry.session)->rows_scored();
      steppers.erase(entry.session);
      sessions.erase(entry.session);
    }
    result.kinds.push_back(entry.kind);
    result.ms.push_back(seconds_between(start, Clock::now()) * 1e3);
    if (entry.kind == OpKind::Ask &&
        got != entry.response.at("candidates").dump()) {
      result.mismatches += 1;
    }
  }
  for (const auto& [index, stepper] : steppers) {
    rows_scored += stepper->rows_scored();
  }
  return result;
}

/// Rung r0: the logged requests as direct SessionManager calls; a durable
/// fleet's per-tell checkpoint is made explicit (serialize, then
/// util::atomic_write_file) so each half gets its own span.
ReplayResult replay_manager(const RequestLog& log,
                            const std::vector<bool>& chosen,
                            pwu::util::ThreadPool* workers, bool durable,
                            const std::string& dir, Tracer& tracer,
                            std::vector<double>& image_bytes) {
  ReplayResult result;
  svc::SessionManager manager(workers);
  fs::create_directories(dir);
  for (std::size_t i = 0; i < log.entries.size(); ++i) {
    const RequestLog::Entry& entry = log.entries[i];
    if (!chosen[entry.session]) continue;
    const json::Value request = json::parse(entry.request);
    const std::string& name = log.sessions[entry.session];
    std::string got;
    const auto start = Clock::now();
    if (entry.kind == OpKind::Create) {
      manager.create(name, svc::spec_from_json(request));
    } else if (entry.kind == OpKind::Ask) {
      svc::AskOutcome outcome;
      {
        Tracer::Span span(tracer, "session.ask", i);
        outcome = manager.ask_with_deadline(name, 0, -1);
      }
      json::Array arr;
      for (const svc::Candidate& c : outcome.candidates) {
        arr.push_back(svc::candidate_to_json(c));
      }
      got = json::Value(std::move(arr)).dump();
    } else if (entry.kind == OpKind::Tell) {
      {
        Tracer::Span span(tracer, "session.tell", i);
        manager.tell(name, svc::configuration_from_json(request.at("levels")),
                     request.at("time").as_number());
      }
      if (durable) {
        std::ostringstream image;
        {
          Tracer::Span span(tracer, "ckpt.serialize", i);
          manager.checkpoint(name, image);
        }
        const std::string bytes = image.str();
        image_bytes.push_back(static_cast<double>(bytes.size()));
        Tracer::Span span(tracer, "ckpt.write", i);
        pwu::util::atomic_write_file(dir + "/" + name + ".ckpt", bytes);
      }
    } else {
      manager.close(name);
    }
    result.kinds.push_back(entry.kind);
    result.ms.push_back(seconds_between(start, Clock::now()) * 1e3);
    if (entry.kind == OpKind::Ask &&
        got != entry.response.at("candidates").dump()) {
      result.mismatches += 1;
    }
  }
  return result;
}

/// Rung r3: the durable fleet's Router in-process (three workers, standby,
/// framing), or for serve_model a plain Router over its one worker.
std::unique_ptr<pwu::router::Router> make_router(
    const Options& opt, const ServeConfig& cfg, const std::string& dir) {
  std::vector<pwu::router::ShardSpec> shards;
  for (int i = 0; i < (cfg.durable ? 3 : 1); ++i) {
    const std::string shard_dir = dir + "/shard-" + std::to_string(i);
    fs::create_directories(shard_dir);
    pwu::router::ShardSpec spec;
    spec.name = "shard-" + std::to_string(i);
    spec.checkpoint_dir = shard_dir;
    std::string command;
    for (const std::string& a : worker_argv(opt, cfg, shard_dir)) {
      command += "'" + a + "' ";
    }
    spec.transport = std::make_unique<svc::PipeTransport>(command, 60.0);
    shards.push_back(std::move(spec));
  }
  pwu::router::RouterOptions options;
  options.standby = cfg.durable;
  options.frame = cfg.durable;
  return std::make_unique<pwu::router::Router>(std::move(shards), options);
}

void print_row(const char* label, const std::vector<double>& ms,
               double base_ms) {
  if (ms.empty()) return;
  const Quartiles q = quartiles(ms);
  std::printf("  %-34s %9.4f  [%8.4f .. %8.4f]  n=%-6zu %6.1f%%\n", label,
              q.median, q.q1, q.q3, ms.size(),
              base_ms > 0.0 ? 100.0 * q.median / base_ms : 0.0);
}

double p50(const std::vector<double>& v) {
  return v.empty() ? 0.0 : quartiles(v).median;
}

std::vector<double> span_ms(const Tracer& tracer, const char* name) {
  const auto spans = tracer.aggregate();
  const auto it = spans.find(name);
  std::vector<double> out;
  if (it == spans.end()) return out;
  for (double s : it->second.durations_s) out.push_back(s * 1e3);
  return out;
}

Report run_serve(const Options& opt, const ServeConfig& cfg) {
  Report report;
  Tracer tracer(opt.trace);
  const auto run_start = Clock::now();

  // Set-up: spawn the fleet kSetupRounds times, keep the last one. (All
  // before the loop: a spawn forks this process, whose size grows with the
  // request log.)
  std::unique_ptr<Server> fleet;
  std::vector<double> spawn_s;
  for (int round = 0; round < kSetupRounds; ++round) {
    if (fleet) fleet->stop();
    spawn_s.push_back(spawn(
        fleet, fleet_argv(opt, cfg,
                          opt.work_dir + "/fleet-" + std::to_string(round))));
  }

  pwu::util::Rng seeds(opt.seed);
  std::vector<TuningClient> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    std::string prefix = "c";
    prefix += std::to_string(c);
    prefix += '-';
    clients.emplace_back(prefix, cfg.mix, c % cfg.mix.size(),
                         seeds.next_u64());
  }
  RequestLog log;
  const LoopResult loop =
      run_closed_loop(fleet->pipe(), clients, opt.seconds, tracer, log);
  fleet->stop();
  report.attempted = loop.attempted;
  report.failed = loop.failed;
  if (!loop.transport_ok) {
    report.fail_check(std::string(cfg.name) + ": transport failed: " +
                      loop.transport_error);
  }
  if (loop.attempted != log.entries.size() ||
      loop.attempted != loop.completed + loop.failed) {
    report.fail_check(std::string(cfg.name) +
                      ": closed loop lost count of its requests");
  }

  // Stream check: every session against the in-process reference.
  if (opt.inject_mismatch) {
    for (RequestLog::Entry& entry : log.entries) {
      if (entry.kind == OpKind::Tell && entry.response.is_object()) {
        entry.response.as_object()["labeled"] = json::Value(1e9);
        break;
      }
    }
  }
  const unsigned workers_n = serve_threads(opt);
  pwu::util::ThreadPool workers(workers_n);
  std::vector<bool> everyone(log.sessions.size(), true);
  {
    Tracer quiet(false);
    svc::InProcessTransport reference(&workers);
    const ReplayResult check = replay(reference, log, everyone, quiet, "ref");
    if (check.mismatches != 0) {
      report.fail_check(std::string(cfg.name) + ": " +
                        std::to_string(check.mismatches) +
                        " replies differ from the in-process reference; "
                        "first: " + check.first_mismatch);
    }
  }

  std::printf("%s: K=%zu closed-loop clients, %.1f s, %zu sessions, %zu "
              "asks, %zu tells, %llu requests (%llu failed), %.0f req/s\n",
              cfg.name, kClients, opt.seconds, log.sessions.size(),
              loop.ask_ms.size(), loop.tell_ms.size(),
              static_cast<unsigned long long>(loop.attempted),
              static_cast<unsigned long long>(loop.failed),
              static_cast<double>(loop.attempted) / loop.wall_s);

  auto& m = report.metrics;
  if (!opt.trace) {
    m["setup_s"] = quartiles(spawn_s).median;
    // Medians: p50 and rate over the one-second windows, p99 over up to
    // three consecutive runs of 1000 or more samples.
    m["ask_ms_p50"] = percentile(loop.window_ask_p50, 0.5, 0);
    m["ask_ms_p99"] = percentile(loop.chunk_ask_p99, 0.5, 0);
    m["tell_ms_p50"] = percentile(loop.window_tell_p50, 0.5, 0);
    m["tell_ms_p99"] = percentile(loop.chunk_tell_p99, 0.5, 0);
    m["req_per_s"] = percentile(loop.window_req_per_s, 0.5, 0);
    return report;
  }

  // ---- traced: replay the first sessions one hop shorter per rung ----
  const std::vector<bool> chosen = replay_subset(log, kReplayAsks);
  pwu::util::ThreadPool* pool = cfg.durable ? nullptr : &workers;
  std::size_t rows_scored = 0;
  std::vector<double> image_bytes;
  const ReplayResult rs =
      replay_sessions(log, chosen, pool, tracer, rows_scored);
  const ReplayResult r0 =
      replay_manager(log, chosen, pool, cfg.durable, opt.work_dir + "/r0",
                     tracer, image_bytes);
  ReplayResult r1;
  {
    fs::create_directories(opt.work_dir + "/r1");
    svc::InProcessTransport server(pool, {},
                                   cfg.durable ? opt.work_dir + "/r1" : "", 1);
    r1 = replay(server, log, chosen, tracer, "rung.r1");
  }
  // r2 and r4 alternate (r2, r4, r4, r2) so drift lands on both sides.
  std::vector<ReplayResult> r2;
  std::vector<ReplayResult> r4;
  ReplayResult r3;
  std::size_t forwards = 0;
  std::size_t router_requests = 0;
  std::size_t replicated = 0;
  const auto run_r2 = [&](int i) {
    Server worker(
        worker_argv(opt, cfg, opt.work_dir + "/r2-" + std::to_string(i)));
    r2.push_back(replay(worker.pipe(), log, chosen, tracer, "rung.r2"));
    worker.stop();
  };
  const auto run_r4 = [&](int i) {
    std::unique_ptr<Server> router;
    spawn(router,
          fleet_argv(opt, cfg, opt.work_dir + "/r4-" + std::to_string(i)));
    r4.push_back(replay(router->pipe(), log, chosen, tracer, "rung.r4"));
    router->stop();
  };
  run_r2(0);
  {
    const auto router = make_router(opt, cfg, opt.work_dir + "/r3");
    RouterTransport server(*router);
    r3 = replay(server, log, chosen, tracer, "rung.r3");
    forwards = router->stats().forwards;
    router_requests = router->stats().requests;
    replicated = router->stats().replicated_ops;
    router->handle(json::parse(R"({"op":"shutdown"})"));
  }
  if (cfg.durable) {
    run_r4(0);
    run_r4(1);
  }
  run_r2(1);

  std::size_t mismatches = rs.mismatches + r0.mismatches + r1.mismatches +
                           r3.mismatches;
  for (const auto& r : r2) mismatches += r.mismatches;
  for (const auto& r : r4) mismatches += r.mismatches;
  if (mismatches != 0) {
    report.fail_check(std::string(cfg.name) + ": " +
                      std::to_string(mismatches) +
                      " replayed replies differ from the logged stream");
  }

  // A hop's self time: the same request at two adjacent rungs, paired.
  const auto hop = [](const std::vector<const ReplayResult*>& earlier,
                      const std::vector<const ReplayResult*>& later,
                      OpKind kind, bool all) {
    std::vector<double> out;
    for (const ReplayResult* e : earlier) {
      for (const ReplayResult* l : later) {
        const std::vector<double> d = paired_diff(*e, *l, kind, all);
        out.insert(out.end(), d.begin(), d.end());
      }
    }
    return out;
  };
  const std::vector<const ReplayResult*> r2s{&r2[0], &r2[1]};
  std::vector<const ReplayResult*> r4s;
  for (const ReplayResult& r : r4) r4s.push_back(&r);
  const OpKind any = OpKind::Create;
  m["protocol.handle.us_p50"] =
      percentile(hop({&r0}, {&r1}, any, true), 0.5) * 1e3;
  m["hop.worker_pipe.us_p50"] =
      percentile(hop({&r1}, r2s, any, true), 0.5) * 1e3;
  m["hop.router.us_p50"] = percentile(hop(r2s, {&r3}, any, true), 0.5) * 1e3;
  m["router.forwards_per_req"] =
      router_requests > 0 ? static_cast<double>(forwards) /
                                static_cast<double>(router_requests)
                          : 0.0;
  if (cfg.durable) {
    m["hop.router_pipe.us_p50"] =
        percentile(hop({&r3}, r4s, any, true), 0.5) * 1e3;
    const std::size_t tells = r3.of(OpKind::Tell).size();
    m["router.replicated_ops_per_tell"] =
        tells > 0 ? static_cast<double>(replicated) /
                        static_cast<double>(tells)
                  : 0.0;
  }
  m["ckpt.bytes_p50"] = image_bytes.empty() ? 0.0 : p50(image_bytes);
  std::size_t bytes = 0;
  for (const RequestLog::Entry& e : log.entries) {
    bytes += e.request.size() + 1 + e.response_bytes + 1;
  }
  m["json.bytes_per_req"] =
      log.entries.empty() ? 0.0
                          : static_cast<double>(bytes) /
                                static_cast<double>(log.entries.size());

  // ---- the per-hop table ----
  // serve_durable: one tell at r4 (the router path); serve_model: one ask
  // at r2 (the single worker).
  const OpKind focus = cfg.durable ? OpKind::Tell : OpKind::Ask;
  std::vector<double> top;
  for (const ReplayResult* r : cfg.durable ? r4s : r2s) {
    const std::vector<double> v = r->of(focus);
    top.insert(top.end(), v.begin(), v.end());
  }
  const double base = p50(top);
  std::printf("\nper-hop breakdown of one %s %s: sequential replay of the "
              "first %zu requests; ms: median [q1 .. q3], samples, share of "
              "the %s median. Hops are paired per-request differences "
              "between adjacent rungs.\n",
              cfg.name, to_string(focus), r1.ms.size(),
              cfg.durable ? "r4 tell" : "r2 ask");
  std::printf("  rungs:\n");
  print_row("rs  AskTellSession calls", rs.of(focus), base);
  print_row("r0  SessionManager calls", r0.of(focus), base);
  print_row("r1  handle_request", r1.of(focus), base);
  std::vector<double> r2_focus = r2[0].of(focus);
  for (double v : r2[1].of(focus)) r2_focus.push_back(v);
  print_row("r2  piped pwu_serve", r2_focus, base);
  print_row(cfg.durable ? "r3  in-process Router" : "r3  Router, one worker",
            r3.of(focus), base);
  if (cfg.durable) print_row("r4  pwu_router process", top, base);
  const std::vector<double> manager_op =
      span_ms(tracer, cfg.durable ? "session.tell" : "session.ask");
  const std::vector<double> serialize = span_ms(tracer, "ckpt.serialize");
  const std::vector<double> write = span_ms(tracer, "ckpt.write");
  std::vector<std::pair<std::string, std::vector<double>>> parts;
  parts.emplace_back(cfg.durable ? "session.tell (r0)" : "session.ask (r0)",
                     manager_op);
  if (cfg.durable) {
    parts.emplace_back("ckpt.serialize (r0)", serialize);
    parts.emplace_back("ckpt.write (r0, fsync)", write);
  }
  parts.emplace_back("json + protocol.handle (r1 - r0)",
                     hop({&r0}, {&r1}, focus, false));
  parts.emplace_back("hop.worker_pipe (r2 - r1)",
                     hop({&r1}, r2s, focus, false));
  if (cfg.durable) {
    parts.emplace_back("hop.router (r3 - r2)", hop(r2s, {&r3}, focus, false));
    parts.emplace_back("hop.router_pipe (r4 - r3)",
                       hop({&r3}, r4s, focus, false));
  }
  std::printf("  parts (medians sum to the top up to 'unaccounted'):\n");
  double accounted = 0.0;
  for (const auto& [label, samples] : parts) {
    print_row(label.c_str(), samples, base);
    accounted += p50(samples);
  }
  std::printf("  %-34s %9.4f  %-31s %6.1f%%\n", "unaccounted", base - accounted,
              "", base > 0.0 ? 100.0 * (base - accounted) / base : 0.0);
  std::printf("  of which (already inside the parts above):\n");
  print_row("rf.fit (rs)", span_ms(tracer, "rf.fit"), base);
  if (!cfg.durable) {
    print_row("rf.score (rs)", span_ms(tracer, "rf.score"), base);
    print_row("core.select (rs)", span_ms(tracer, "core.select"), base);
    print_row("hop.router (r3 - r2, on top)", hop(r2s, {&r3}, focus, false),
              base);
  }
  print_row("json.encode (client, request)", span_ms(tracer, "json.encode"),
            base);
  print_row("json.decode (client, reply)", span_ms(tracer, "json.decode"),
            base);
  if (cfg.durable) {
    // r4 vs r2: slower only when every r4 replay's median exceeds every
    // r2 replay's median (replays ran r2, r4, r4, r2).
    double r4_min = 1e300;
    double r2_max = 0.0;
    for (const ReplayResult* r : r4s) r4_min = std::min(r4_min, p50(r->ms));
    for (const ReplayResult* r : r2s) r2_max = std::max(r2_max, p50(r->ms));
    const std::vector<double> gap = hop(r2s, r4s, any, true);
    const Quartiles q = quartiles(gap);
    std::printf("  r4 - r2 per request (all kinds): median %.4f ms [%.4f .. "
                "%.4f], n=%zu; replay medians r2 <= %.4f ms, r4 >= %.4f ms "
                "-> the router path is %s the one-worker path\n",
                q.median, q.q1, q.q3, gap.size(), r2_max, r4_min,
                r4_min > r2_max ? "SLOWER than" : "NOT reliably slower than");
  }
  std::printf("\n");

  finish_trace(tracer, opt, seconds_between(run_start, Clock::now()),
               rows_scored, report);
  return report;
}

}  // namespace

Report run_serve_durable(const Options& opt) {
  return run_serve(opt, durable_config());
}

Report run_serve_model(const Options& opt) {
  return run_serve(opt, model_config());
}

}  // namespace perfbench
