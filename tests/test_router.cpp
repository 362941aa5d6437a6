// Router — placement, aggregation, and the failover contract, driven
// entirely in-process (InProcessTransport shards) so every path runs in
// the fast suite. The kill-switch transport below injects the two
// connection-death shapes the multi-process chaos harness produces with
// real SIGKILLs:
//
//   kill-on-send  the request never reached the worker (crash before
//                 apply) — failover must *replay* it on the new home;
//   kill-on-recv  the worker applied (and auto-checkpointed) the request
//                 but the response was lost (crash mid-fit) — a success
//                 tell must be *synthesized*, never replayed.
//
// Equivalence oracle throughout: the response stream through the router —
// across shard deaths — must be bit-identical (modulo the "checkpoint"
// path field) to a plain serve loop on one healthy SessionManager.

#include "router/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "router/hash_ring.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace pwu::router {
namespace {

namespace json = util::json;
namespace fs = std::filesystem;

// ---- fixtures --------------------------------------------------------------

std::string fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("pwu_router_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Transport wrapper injecting deterministic connection death around an
/// owned in-process worker (auto-checkpointing every tell, like the real
/// pwu_serve workers the router spawns).
class KillSwitchTransport : public service::Transport {
 public:
  explicit KillSwitchTransport(const std::string& checkpoint_dir)
      : inner_(nullptr, service::ServiceLimits{}, checkpoint_dir, 1) {}

  /// Dies on the `nth` (1-based) send whose line contains `needle`,
  /// *before* the worker sees it.
  void arm_send_kill(std::string needle, int nth) {
    send_needle_ = std::move(needle);
    send_countdown_ = nth;
  }

  /// Applies the `nth` matching request but loses the response — the
  /// "crashed after the mutation, before the ack" shape.
  void arm_recv_kill(std::string needle, int nth) {
    recv_needle_ = std::move(needle);
    recv_countdown_ = nth;
  }

  void send(const std::string& line) override {
    if (dead_) throw service::TransportError("connection killed");
    if (send_countdown_ > 0 && line.find(send_needle_) != std::string::npos &&
        --send_countdown_ == 0) {
      dead_ = true;
      throw service::TransportError("connection killed on send");
    }
    const bool poison = recv_countdown_ > 0 &&
                        line.find(recv_needle_) != std::string::npos &&
                        --recv_countdown_ == 0;
    inner_.send(line);
    poison_.push_back(poison);
  }

  std::string recv() override {
    if (dead_) throw service::TransportError("connection killed");
    const bool poison = poison_.front();
    poison_.erase(poison_.begin());
    const std::string line = inner_.recv();
    if (poison) {
      dead_ = true;
      throw service::TransportError("connection killed on recv");
    }
    return line;
  }

  bool alive() const override { return !dead_; }

 private:
  service::InProcessTransport inner_;
  std::string send_needle_;
  int send_countdown_ = 0;
  std::string recv_needle_;
  int recv_countdown_ = 0;
  std::vector<bool> poison_;
  bool dead_ = false;
};

/// Two-shard router over kill-switch transports; the raw pointers stay
/// valid for arming (the Router owns the transports).
struct Fleet {
  std::unique_ptr<Router> router;
  KillSwitchTransport* t0 = nullptr;
  KillSwitchTransport* t1 = nullptr;
  std::string dir0;
  std::string dir1;
};

Fleet make_fleet(const std::string& tag, RouterOptions options = {}) {
  Fleet fleet;
  fleet.dir0 = fresh_dir(tag + "_s0");
  fleet.dir1 = fresh_dir(tag + "_s1");
  auto t0 = std::make_unique<KillSwitchTransport>(fleet.dir0);
  auto t1 = std::make_unique<KillSwitchTransport>(fleet.dir1);
  fleet.t0 = t0.get();
  fleet.t1 = t1.get();
  std::vector<ShardSpec> specs(2);
  specs[0].name = "s0";
  specs[0].transport = std::move(t0);
  specs[0].checkpoint_dir = fleet.dir0;
  specs[1].name = "s1";
  specs[1].transport = std::move(t1);
  specs[1].checkpoint_dir = fleet.dir1;
  fleet.router = std::make_unique<Router>(std::move(specs), options);
  return fleet;
}

/// The shard (by fleet slot) owning `session` under the default ring.
int owner_slot(const std::string& session) {
  HashRing ring;
  ring.add("s0");
  ring.add("s1");
  return ring.owner(session) == "s0" ? 0 : 1;
}

/// A session name owned by fleet slot `slot` ("s0" or "s1").
std::string session_on(int slot, int salt = 0) {
  for (int i = salt * 1000;; ++i) {
    const std::string name = "sess-" + std::to_string(i);
    if (owner_slot(name) == slot) return name;
  }
}

// ---- protocol helpers ------------------------------------------------------

json::Value create_request(const std::string& name, unsigned seed) {
  return json::parse(
      R"({"op":"create","session":")" + name +
      R"(","workload":"gesummv","n_init":6,"n_batch":2,"n_max":18,)"
      R"("trees":8,"pool_size":150,"seed":)" + std::to_string(seed) + "}");
}

json::Value session_request(const std::string& op, const std::string& name) {
  json::Object obj;
  obj.emplace("op", json::Value(op));
  obj.emplace("session", json::Value(name));
  return json::Value(std::move(obj));
}

json::Value tell_request(const std::string& name, const json::Value& levels,
                         double time) {
  json::Object obj;
  obj.emplace("op", json::Value("tell"));
  obj.emplace("session", json::Value(name));
  obj.emplace("levels", levels);
  obj.emplace("time", json::Value(time));
  return json::Value(std::move(obj));
}

/// Drops the "checkpoint" field (an absolute path that legitimately
/// differs across homes/runs) so streams compare bit-identically.
std::string canonical(json::Value response) {
  if (response.is_object()) response.as_object().erase("checkpoint");
  return response.dump();
}

/// One protocol round against any dispatcher, retrying structured
/// redirects (the touch itself is the re-home trigger).
template <typename Dispatch>
json::Value call(Dispatch&& dispatch, const json::Value& request) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    json::Value response = dispatch(request);
    if (!response.bool_or("redirected", false)) return response;
  }
  ADD_FAILURE() << "request redirected 20 times: " << request.dump();
  return json::Value();
}

/// Drives one session to completion through `dispatch`, recording every
/// canonicalized response — the comparison stream.
template <typename Dispatch>
std::vector<std::string> drive(Dispatch&& dispatch, const std::string& name,
                               unsigned seed) {
  std::vector<std::string> stream;
  const json::Value created = call(dispatch, create_request(name, seed));
  EXPECT_TRUE(created.bool_or("ok", false)) << created.dump();
  stream.push_back(canonical(created));
  const auto workload = workloads::make_workload("gesummv");
  util::Rng measure_rng(
      std::stoull(created.at("measure_seed").as_string()));
  for (;;) {
    const json::Value batch = call(dispatch, session_request("ask", name));
    EXPECT_TRUE(batch.bool_or("ok", false)) << batch.dump();
    stream.push_back(canonical(batch));
    const json::Array& candidates = batch.at("candidates").as_array();
    if (candidates.empty()) break;
    for (const json::Value& candidate : candidates) {
      const auto config =
          service::configuration_from_json(candidate.at("levels"));
      const double t = workload->measure(config, measure_rng, 1);
      const json::Value told =
          call(dispatch, tell_request(name, candidate.at("levels"), t));
      EXPECT_TRUE(told.bool_or("ok", false)) << told.dump();
      stream.push_back(canonical(told));
    }
  }
  stream.push_back(canonical(call(dispatch, session_request("status", name))));
  return stream;
}

/// The oracle: the same session driven against a lone healthy manager.
std::vector<std::string> drive_direct(const std::string& name,
                                      unsigned seed) {
  service::SessionManager manager;
  return drive(
      [&](const json::Value& request) {
        return service::handle_request(manager, request);
      },
      name, seed);
}

std::vector<std::string> drive_router(Router& router, const std::string& name,
                                      unsigned seed) {
  return drive(
      [&](const json::Value& request) { return router.handle(request); },
      name, seed);
}

// ---- placement & equivalence ----------------------------------------------

TEST(Router, MatchesDirectServeBitExact) {
  Fleet fleet = make_fleet("equiv");
  const std::string name = session_on(0);
  const auto via_router = drive_router(*fleet.router, name, 42);
  const auto direct = drive_direct(name, 42);
  ASSERT_EQ(via_router.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_router[i], direct[i]) << "response " << i;
  }
  EXPECT_EQ(fleet.router->stats().failovers, 0u);
  EXPECT_EQ(fleet.router->sessions_tracked(), 1u);

  const json::Value closed =
      fleet.router->handle(session_request("close", name));
  EXPECT_TRUE(closed.bool_or("ok", false));
  EXPECT_EQ(fleet.router->sessions_tracked(), 0u);
}

TEST(Router, SessionsLandOnTheirRingOwners) {
  Fleet fleet = make_fleet("placement");
  const std::string on0 = session_on(0);
  const std::string on1 = session_on(1);
  ASSERT_TRUE(
      fleet.router->handle(create_request(on0, 1)).bool_or("ok", false));
  ASSERT_TRUE(
      fleet.router->handle(create_request(on1, 2)).bool_or("ok", false));
  // The worker-side auto-checkpoint directory tells us where each session
  // physically lives: the router's baseline checkpoint lands at the home.
  EXPECT_TRUE(fs::exists(fs::path(fleet.dir0) / (on0 + ".ckpt")));
  EXPECT_TRUE(fs::exists(fs::path(fleet.dir1) / (on1 + ".ckpt")));
  EXPECT_FALSE(fs::exists(fs::path(fleet.dir1) / (on0 + ".ckpt")));
}

// ---- failover: the three resolution shapes --------------------------------

TEST(Router, KillOnRecvMidTellSynthesizesTheLostAck) {
  // The worker applies and auto-checkpoints the tell, then "crashes"
  // before answering (the mid-fit kill). Replaying would double-apply;
  // the router must synthesize the ack from the resumed status — and the
  // synthesized line must be indistinguishable from the healthy one.
  Fleet fleet = make_fleet("synth");
  const std::string name = session_on(0);
  fleet.t0->arm_recv_kill(R"("op":"tell")", 5);

  const auto via_router = drive_router(*fleet.router, name, 7);
  const auto direct = drive_direct(name, 7);
  ASSERT_EQ(via_router.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_router[i], direct[i]) << "response " << i;
  }
  EXPECT_EQ(fleet.router->stats().failovers, 1u);
  EXPECT_EQ(fleet.router->stats().rehomes, 1u);
  EXPECT_EQ(fleet.router->stats().synthesized, 1u);
  EXPECT_EQ(fleet.router->stats().replays, 0u);
  EXPECT_FALSE(fleet.router->shard_up("s0"));
  EXPECT_TRUE(fleet.router->shard_up("s1"));
}

TEST(Router, KillOnSendMidTellReplaysTheUnappliedTell) {
  // Death *before* the worker saw the tell: nothing was applied, so the
  // replay on the new home is the first (and only) application.
  Fleet fleet = make_fleet("replay_tell");
  const std::string name = session_on(1);
  fleet.t1->arm_send_kill(R"("op":"tell")", 4);

  const auto via_router = drive_router(*fleet.router, name, 9);
  const auto direct = drive_direct(name, 9);
  ASSERT_EQ(via_router.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_router[i], direct[i]) << "response " << i;
  }
  EXPECT_EQ(fleet.router->stats().failovers, 1u);
  EXPECT_EQ(fleet.router->stats().synthesized, 0u);
  EXPECT_EQ(fleet.router->stats().replays, 1u);
}

TEST(Router, KillOnRecvMidAskReplaysBitIdentically) {
  // The dying worker consumed pool candidates serving the ask, but the
  // response was lost. Resume rolls the survivor back to the pre-ask
  // checkpoint, so the replay regenerates the *same* candidates.
  Fleet fleet = make_fleet("replay_ask");
  const std::string name = session_on(0);
  fleet.t0->arm_recv_kill(R"("op":"ask")", 3);

  const auto via_router = drive_router(*fleet.router, name, 11);
  const auto direct = drive_direct(name, 11);
  ASSERT_EQ(via_router.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_router[i], direct[i]) << "response " << i;
  }
  EXPECT_EQ(fleet.router->stats().failovers, 1u);
  EXPECT_EQ(fleet.router->stats().replays, 1u);
}

TEST(Router, ReplayLogRestoresOutstandingCandidatesAcrossFailover) {
  // An *acked* ask lives only in worker memory until the next tell
  // checkpoints it. Kill the shard after the ack (on a status probe): the
  // re-home must replay the logged ask so the client's outstanding
  // candidates are still tellable on the new home.
  Fleet fleet = make_fleet("replay_log");
  const std::string name = session_on(0);
  Router& router = *fleet.router;

  const json::Value created = router.handle(create_request(name, 21));
  ASSERT_TRUE(created.bool_or("ok", false));
  const json::Value batch = router.handle(session_request("ask", name));
  ASSERT_TRUE(batch.bool_or("ok", false));
  const json::Array candidates = batch.at("candidates").as_array();
  ASSERT_FALSE(candidates.empty());

  fleet.t0->arm_recv_kill(R"("op":"status")", 1);
  const json::Value status = router.handle(session_request("status", name));
  ASSERT_TRUE(status.bool_or("ok", false)) << status.dump();
  EXPECT_EQ(router.stats().failovers, 1u);
  EXPECT_EQ(router.stats().rehomes, 1u);
  // The replayed status must see the outstanding candidates.
  EXPECT_EQ(status.at("status").number_or("pending", -1.0),
            static_cast<double>(candidates.size()));

  // And the client can still tell every candidate it holds.
  const auto workload = workloads::make_workload("gesummv");
  util::Rng measure_rng(std::stoull(created.at("measure_seed").as_string()));
  for (const json::Value& candidate : candidates) {
    const auto config =
        service::configuration_from_json(candidate.at("levels"));
    const double t = workload->measure(config, measure_rng, 1);
    const json::Value told =
        router.handle(tell_request(name, candidate.at("levels"), t));
    EXPECT_TRUE(told.bool_or("ok", false)) << told.dump();
  }
}

TEST(Router, ReplayDisabledAnswersRedirectedAndRecovers) {
  RouterOptions options;
  options.replay_in_flight = false;
  options.retry_after_ms = 25;
  Fleet fleet = make_fleet("redirect", options);
  const std::string name = session_on(0);
  Router& router = *fleet.router;

  ASSERT_TRUE(router.handle(create_request(name, 3)).bool_or("ok", false));
  fleet.t0->arm_send_kill(R"("op":"ask")", 1);
  const json::Value redirected = router.handle(session_request("ask", name));
  EXPECT_FALSE(redirected.bool_or("ok", true));
  EXPECT_TRUE(redirected.bool_or("redirected", false));
  EXPECT_EQ(redirected.number_or("retry_after_ms", 0.0), 25.0);
  EXPECT_GE(router.stats().redirects, 1u);

  // The session was already re-homed during failover; the client's retry
  // succeeds on the survivor.
  const json::Value retried = router.handle(session_request("ask", name));
  EXPECT_TRUE(retried.bool_or("ok", false)) << retried.dump();
  EXPECT_EQ(router.parked_sessions(), 0u);
}

TEST(Router, TotalFleetLossParksSessionsAndRefusesCreates) {
  Fleet fleet = make_fleet("loss");
  const std::string name = session_on(0);
  Router& router = *fleet.router;
  ASSERT_TRUE(router.handle(create_request(name, 5)).bool_or("ok", false));

  // Both shards die: the in-flight request's failover cascades through
  // the survivor when the re-home attempt hits it.
  fleet.t0->arm_send_kill(R"("op":"ask")", 1);
  fleet.t1->arm_send_kill(R"("op":"resume")", 1);
  const json::Value response = router.handle(session_request("ask", name));
  EXPECT_FALSE(response.bool_or("ok", true));
  EXPECT_TRUE(response.bool_or("redirected", false)) << response.dump();
  EXPECT_EQ(router.parked_sessions(), 1u);
  EXPECT_TRUE(router.ring().empty());

  // Parked sessions keep answering redirected — never "unknown session".
  const json::Value again = router.handle(session_request("status", name));
  EXPECT_TRUE(again.bool_or("redirected", false));
  // New sessions are refused outright: there is nowhere to place them.
  const json::Value refused = router.handle(create_request("other", 6));
  EXPECT_FALSE(refused.bool_or("ok", true));
  EXPECT_NE(refused.string_or("error", "").find("all shards are down"),
            std::string::npos);
}

// ---- aggregation ----------------------------------------------------------

TEST(Router, HealthAggregatesShardsRingAndCounters) {
  Fleet fleet = make_fleet("health");
  const std::string name = session_on(0);
  ASSERT_TRUE(
      fleet.router->handle(create_request(name, 1)).bool_or("ok", false));

  const json::Value response =
      fleet.router->handle(json::parse(R"({"op":"health"})"));
  ASSERT_TRUE(response.bool_or("ok", false));
  const json::Value& health = response.at("health");
  EXPECT_EQ(health.string_or("role", ""), "router");
  EXPECT_EQ(health.at("ring").number_or("vnodes", 0.0), 128.0);
  EXPECT_EQ(health.at("ring").at("members").as_array().size(), 2u);
  EXPECT_EQ(health.number_or("sessions_tracked", -1.0), 1.0);
  EXPECT_EQ(health.number_or("sessions_parked", -1.0), 0.0);

  const json::Array& shards = health.at("shards").as_array();
  ASSERT_EQ(shards.size(), 2u);
  double homed = 0.0;
  for (const json::Value& shard : shards) {
    EXPECT_EQ(shard.string_or("state", ""), "up");
    // Each up shard embeds its worker's own health report.
    EXPECT_TRUE(shard.at("worker").is_object()) << shard.dump();
    homed += shard.number_or("sessions", 0.0);
  }
  EXPECT_EQ(homed, 1.0);
  EXPECT_TRUE(health.at("counters").has("failovers"));
  EXPECT_TRUE(health.at("counters").has("synthesized"));
}

TEST(Router, HealthReportsDeadShardDown) {
  Fleet fleet = make_fleet("health_down");
  const std::string name = session_on(0);
  ASSERT_TRUE(
      fleet.router->handle(create_request(name, 1)).bool_or("ok", false));
  fleet.t0->arm_send_kill(R"("op":"status")", 1);
  ASSERT_TRUE(fleet.router->handle(session_request("status", name))
                  .bool_or("ok", false));

  const json::Value response =
      fleet.router->handle(json::parse(R"({"op":"health"})"));
  const json::Array& shards = response.at("health").at("shards").as_array();
  ASSERT_EQ(shards.size(), 2u);
  for (const json::Value& shard : shards) {
    const bool is_dead = shard.string_or("shard", "") == "s0";
    EXPECT_EQ(shard.string_or("state", ""), is_dead ? "down" : "up");
    if (is_dead) {
      EXPECT_EQ(shard.number_or("rehomed_away", -1.0), 1.0);
      EXPECT_FALSE(shard.has("worker"));
    }
  }
  EXPECT_EQ(response.at("health").at("ring").at("members").as_array().size(),
            1u);
}

TEST(Router, ListMergesSessionsAcrossShards) {
  Fleet fleet = make_fleet("list");
  const std::string on0 = session_on(0);
  const std::string on1 = session_on(1);
  ASSERT_TRUE(
      fleet.router->handle(create_request(on0, 1)).bool_or("ok", false));
  ASSERT_TRUE(
      fleet.router->handle(create_request(on1, 2)).bool_or("ok", false));

  const json::Value response =
      fleet.router->handle(json::parse(R"({"op":"list"})"));
  ASSERT_TRUE(response.bool_or("ok", false));
  const json::Array& sessions = response.at("sessions").as_array();
  ASSERT_EQ(sessions.size(), 2u);
  std::vector<std::string> names;
  for (const json::Value& s : sessions) {
    names.push_back(s.string_or("session", ""));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), on0), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), on1), names.end());
}

// ---- batches ---------------------------------------------------------------

TEST(Router, BatchMatchesSequentialHandling) {
  // Same requests through handle_batch on one fleet and handle() on a
  // twin: pipelining may change syscall shape, never responses.
  Fleet batched = make_fleet("batch_a");
  Fleet sequential = make_fleet("batch_b");
  const std::string on0 = session_on(0);
  const std::string on1 = session_on(1);

  std::vector<json::Value> requests;
  requests.push_back(create_request(on0, 31));
  requests.push_back(create_request(on1, 32));
  requests.push_back(session_request("ask", on0));
  requests.push_back(session_request("ask", on1));
  requests.push_back(session_request("status", on0));
  requests.push_back(session_request("status", on1));
  requests.push_back(json::parse(R"({"op":"nonsense"})"));

  const auto batch_responses = batched.router->handle_batch(requests);
  ASSERT_EQ(batch_responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(canonical(batch_responses[i]),
              canonical(sequential.router->handle(requests[i])))
        << "request " << i;
  }
}

TEST(Router, BatchResolvesUnansweredTailAfterMidWindowDeath) {
  // Two sessions pipelined onto one shard; the window dies on the first
  // response. The unanswered tail must still come back answered — via
  // re-home and replay — not as errors.
  Fleet fleet = make_fleet("batch_death");
  Fleet control = make_fleet("batch_ctrl");
  const std::string a = session_on(0, 1);
  const std::string b = session_on(0, 2);
  for (Fleet* f : {&fleet, &control}) {
    ASSERT_TRUE(f->router->handle(create_request(a, 41)).bool_or("ok", false));
    ASSERT_TRUE(f->router->handle(create_request(b, 42)).bool_or("ok", false));
  }
  fleet.t0->arm_recv_kill(R"("op":"ask")", 1);

  std::vector<json::Value> window;
  window.push_back(session_request("ask", a));
  window.push_back(session_request("ask", b));
  const auto responses = fleet.router->handle_batch(window);
  const auto expected = control.router->handle_batch(window);
  ASSERT_EQ(responses.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(canonical(responses[i]), canonical(expected[i]))
        << "slot " << i;
  }
  EXPECT_EQ(fleet.router->stats().failovers, 1u);
  EXPECT_EQ(fleet.router->stats().rehomes, 2u);
}

// ---- request plumbing ------------------------------------------------------

TEST(Router, RequestLevelErrorsAreStructured) {
  Fleet fleet = make_fleet("errors");
  const json::Value unknown =
      fleet.router->handle(json::parse(R"({"op":"warp"})"));
  EXPECT_FALSE(unknown.bool_or("ok", true));
  EXPECT_NE(unknown.string_or("error", "").find("unknown op"),
            std::string::npos);

  const json::Value no_session =
      fleet.router->handle(json::parse(R"({"op":"ask"})"));
  EXPECT_FALSE(no_session.bool_or("ok", true));

  // Worker-side errors pass through untouched.
  const json::Value missing =
      fleet.router->handle(session_request("status", "ghost"));
  EXPECT_FALSE(missing.bool_or("ok", true));
  EXPECT_FALSE(missing.has("redirected"));
}

TEST(Router, RunRouterLoopSpeaksTheLineProtocol) {
  Fleet fleet = make_fleet("loop");
  const std::string name = session_on(0);
  std::stringstream in;
  in << create_request(name, 51).dump() << "\n"
     << "\n"  // blank line: skipped, no response
     << "this is not json\n"
     << session_request("status", name).dump() << "\n"
     << R"({"op":"shutdown"})" << "\n"
     << session_request("status", name).dump() << "\n";  // after shutdown
  std::stringstream out;
  const std::size_t handled = run_router_loop(in, out, *fleet.router);
  EXPECT_EQ(handled, 4u);  // create, parse error, status, shutdown

  std::vector<json::Value> responses;
  std::string line;
  while (std::getline(out, line)) responses.push_back(json::parse(line));
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].bool_or("ok", false));
  EXPECT_FALSE(responses[1].bool_or("ok", true));  // parse error
  EXPECT_TRUE(responses[2].bool_or("ok", false));
  EXPECT_TRUE(responses[3].bool_or("shutdown", false));
}

/// Reads a stream of pwu1 frames, failing on any unframed or corrupt one.
std::vector<json::Value> read_frames(const std::string& text) {
  std::istringstream lines(text);
  std::vector<json::Value> frames;
  std::string line;
  while (std::getline(lines, line)) {
    service::FrameHeader header;
    EXPECT_TRUE(service::parse_frame_header(line, header)) << line;
    std::string payload;
    EXPECT_TRUE(std::getline(lines, payload));
    EXPECT_TRUE(service::frame_payload_matches(header, payload));
    frames.push_back(json::parse(payload));
  }
  return frames;
}

TEST(Router, RunRouterLoopNegotiatesFramingOnTheClientHop) {
  Fleet fleet = make_fleet("loop_hello");
  // Captured up front: the shutdown marks the shards down, which moves
  // the ring to a later epoch.
  const std::uint64_t epoch = fleet.router->ring().epoch();
  std::stringstream in;
  in << R"({"frame":true,"op":"hello"})" << "\n"
     << service::frame_encode(R"({"op":"list"})")
     << service::frame_encode(R"({"op":"shutdown"})");
  std::stringstream out;
  EXPECT_EQ(run_router_loop(in, out, *fleet.router), 3u);

  // The hello reply and everything after it come back framed.
  const std::vector<json::Value> frames = read_frames(out.str());
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_TRUE(frames[0].bool_or("ok", false)) << frames[0].dump();
  EXPECT_EQ(frames[0].string_or("proto", ""), "pwu1");
  EXPECT_TRUE(frames[0].bool_or("frame", false));
  EXPECT_EQ(frames[0].number_or("fence_epoch", -1.0),
            static_cast<double>(epoch));
  EXPECT_TRUE(frames[1].bool_or("ok", false)) << frames[1].dump();
  EXPECT_TRUE(frames[1].at("sessions").is_array());
  EXPECT_TRUE(frames[2].bool_or("shutdown", false));
}

TEST(Router, RunRouterLoopReportsBadFramesAndResyncs) {
  Fleet fleet = make_fleet("loop_bad_frame");
  std::string corrupt = service::frame_encode(R"({"op":"list"})");
  corrupt[corrupt.find("list")] = 'L';  // payload no longer matches its CRC
  std::stringstream in;
  in << corrupt << service::frame_encode(R"({"op":"list"})")
     << R"({"op":"shutdown"})" << "\n";
  std::stringstream out;
  EXPECT_EQ(run_router_loop(in, out, *fleet.router), 3u);

  std::vector<json::Value> responses;
  std::string line;
  while (std::getline(out, line)) responses.push_back(json::parse(line));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].bool_or("ok", true));
  EXPECT_TRUE(responses[0].bool_or("bad_frame", false)) << responses[0].dump();
  // The next frame is served normally, not swallowed by the damaged one.
  EXPECT_TRUE(responses[1].bool_or("ok", false)) << responses[1].dump();
  EXPECT_TRUE(responses[2].bool_or("shutdown", false));
}

TEST(Router, RunRouterLoopStopsAtAShutdownInsideAWindow) {
  Fleet fleet = make_fleet("loop_shutdown");
  const std::string name = session_on(0);
  const std::string after = session_request("status", name).dump();
  // All three lines are buffered, so they would share one window; the
  // shutdown ends it, and the request behind it is never read or run.
  std::stringstream in;
  in << create_request(name, 52).dump() << "\n"
     << R"({"op":"shutdown"})" << "\n"
     << after << "\n";
  std::stringstream out;
  EXPECT_EQ(run_router_loop(in, out, *fleet.router), 2u);
  std::string unread;
  ASSERT_TRUE(std::getline(in, unread));
  EXPECT_EQ(unread, after);
}

}  // namespace
}  // namespace pwu::router
