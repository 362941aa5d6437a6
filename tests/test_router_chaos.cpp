// Multi-process chaos harness for the router tier (`ctest -L shard`).
//
// Real pwu_serve workers forked behind PipeTransports, killed at armed
// kill points (--kill-at) so the crash is a genuine process abort at a
// precise protocol instant, with real torn pipes and real checkpoint
// files. Three crash instants cover the failover decision table:
//
//   ask_tell_session.fit_model     tell applied AND auto-checkpointed,
//                                  worker dies in the refit → the router
//                                  must SYNTHESIZE the lost ack;
//   session_manager.tell.applied   tell applied in memory only, nothing
//                                  durable → the router must REPLAY it;
//   atomic_write.mid_write         worker dies half-way through writing
//                                  the post-tell checkpoint → the torn
//                                  temp file is invisible, the previous
//                                  image resumes, the tell REPLAYS.
//
// Acceptance in every case: the client-visible response stream (modulo
// the "checkpoint" path field) is bit-identical to an unkilled control
// fleet, and the session finishes with zero lost state.

#include "router/router.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "router/hash_ring.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

#ifndef PWU_SERVE_BIN
#define PWU_SERVE_BIN "pwu_serve"  // overridden by CMake with the real path
#endif

namespace pwu::router {
namespace {

namespace json = util::json;
namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("pwu_shard_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A two-worker fleet over real forked pwu_serve processes. `kill_spec`
/// (NAME[:HITS], empty = healthy) arms the shard that owns `victim`.
std::unique_ptr<Router> make_fleet(const std::string& tag,
                                   const std::string& victim,
                                   const std::string& kill_spec) {
  HashRing ring;
  ring.add("shard-0");
  ring.add("shard-1");
  const std::string owner = ring.owner(victim);
  std::vector<ShardSpec> specs(2);
  for (int i = 0; i < 2; ++i) {
    const std::string name = "shard-" + std::to_string(i);
    const std::string dir = fresh_dir(tag + "_" + std::to_string(i));
    std::string command = std::string("'") + PWU_SERVE_BIN +
                          "' --checkpoint-dir '" + dir +
                          "' --checkpoint-every 1";
    if (!kill_spec.empty() && name == owner) {
      command += " --kill-at " + kill_spec;
    }
    specs[i].name = name;
    specs[i].transport =
        std::make_unique<service::PipeTransport>(command, 120.0);
    specs[i].checkpoint_dir = dir;
  }
  return std::make_unique<Router>(std::move(specs));
}

json::Value create_request(const std::string& name, unsigned seed) {
  return json::parse(
      R"({"op":"create","session":")" + name +
      R"(","workload":"gesummv","n_init":6,"n_batch":2,"n_max":16,)"
      R"("trees":8,"pool_size":120,"seed":)" + std::to_string(seed) + "}");
}

json::Value session_request(const std::string& op, const std::string& name) {
  json::Object obj;
  obj.emplace("op", json::Value(op));
  obj.emplace("session", json::Value(name));
  return json::Value(std::move(obj));
}

/// Checkpoint paths legitimately differ across homes; everything else in
/// the stream must match bit for bit.
std::string canonical(json::Value response) {
  if (response.is_object()) response.as_object().erase("checkpoint");
  return response.dump();
}

/// Drives one session to completion, recording every canonicalized
/// response. Redirects (re-home in progress) are retried like pwu_client
/// does, without entering the stream — the control fleet never emits
/// them, and the contract is about the *accepted* responses.
std::vector<std::string> drive(Router& router, const std::string& name,
                               unsigned seed) {
  const auto call = [&](const json::Value& request) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      json::Value response = router.handle(request);
      if (!response.bool_or("redirected", false)) return response;
    }
    ADD_FAILURE() << "request redirected 20 times: " << request.dump();
    return json::Value();
  };

  std::vector<std::string> stream;
  const json::Value created = call(create_request(name, seed));
  EXPECT_TRUE(created.bool_or("ok", false)) << created.dump();
  stream.push_back(canonical(created));
  const auto workload = workloads::make_workload("gesummv");
  util::Rng measure_rng(std::stoull(created.at("measure_seed").as_string()));
  for (;;) {
    const json::Value batch = call(session_request("ask", name));
    EXPECT_TRUE(batch.bool_or("ok", false)) << batch.dump();
    stream.push_back(canonical(batch));
    const json::Array& candidates = batch.at("candidates").as_array();
    if (candidates.empty()) break;
    for (const json::Value& candidate : candidates) {
      const auto config =
          service::configuration_from_json(candidate.at("levels"));
      const double t = workload->measure(config, measure_rng, 1);
      json::Object tell;
      tell.emplace("op", json::Value("tell"));
      tell.emplace("session", json::Value(name));
      tell.emplace("levels", candidate.at("levels"));
      tell.emplace("time", json::Value(t));
      const json::Value told = call(json::Value(std::move(tell)));
      EXPECT_TRUE(told.bool_or("ok", false)) << told.dump();
      stream.push_back(canonical(told));
    }
  }
  stream.push_back(canonical(call(session_request("status", name))));
  return stream;
}

/// Runs the kill scenario against its control and asserts the streams are
/// bit-identical and the session survived to completion.
void expect_bit_identical_failover(const std::string& tag,
                                   const std::string& kill_spec,
                                   unsigned seed) {
  const std::string name = "chaos-" + tag;
  auto control = make_fleet(tag + "_ctl", name, "");
  auto chaos = make_fleet(tag + "_kill", name, kill_spec);

  const auto expected = drive(*control, name, seed);
  const auto observed = drive(*chaos, name, seed);

  ASSERT_EQ(observed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(observed[i], expected[i]) << "response " << i;
  }

  // The kill really happened and really failed over.
  EXPECT_EQ(chaos->stats().failovers, 1u);
  EXPECT_EQ(chaos->stats().rehomes, 1u);
  EXPECT_EQ(control->stats().failovers, 0u);

  // Zero lost sessions: the fleet still lists and serves it.
  const json::Value listed = chaos->handle(json::parse(R"({"op":"list"})"));
  ASSERT_TRUE(listed.bool_or("ok", false));
  const json::Array& sessions = listed.at("sessions").as_array();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].string_or("session", ""), name);
  EXPECT_TRUE(sessions[0].bool_or("done", false));
  EXPECT_EQ(sessions[0].number_or("labeled", 0.0), 16.0);

  chaos->handle(json::parse(R"({"op":"shutdown"})"));
  control->handle(json::parse(R"({"op":"shutdown"})"));
}

// ---- warm-standby and ring-growth schedules --------------------------------

/// N-worker fleet with per-worker kill schedules ("shard-i" -> NAME:HITS)
/// and explicit router options (the HA schedules run with --standby
/// semantics: RouterOptions::standby = true).
std::unique_ptr<Router> make_ha_fleet(
    const std::string& tag, std::size_t workers,
    const std::map<std::string, std::string>& kills,
    RouterOptions options = {}) {
  std::vector<ShardSpec> specs(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    const std::string name = "shard-" + std::to_string(i);
    const std::string dir = fresh_dir(tag + "_" + std::to_string(i));
    std::string command = std::string("'") + PWU_SERVE_BIN +
                          "' --checkpoint-dir '" + dir +
                          "' --checkpoint-every 1";
    const auto kill = kills.find(name);
    if (kill != kills.end()) command += " --kill-at " + kill->second;
    specs[i].name = name;
    specs[i].transport =
        std::make_unique<service::PipeTransport>(command, 120.0);
    specs[i].checkpoint_dir = dir;
  }
  return std::make_unique<Router>(std::move(specs), options);
}

/// Forks one more pwu_serve and offers it to the router's ring; the
/// returned response reports whether the grow committed or aborted.
json::Value grow_fleet(Router& router, const std::string& tag,
                       const std::string& name,
                       const std::string& kill_spec = "") {
  const std::string dir = fresh_dir(tag + "_" + name);
  std::string command = std::string("'") + PWU_SERVE_BIN +
                        "' --checkpoint-dir '" + dir +
                        "' --checkpoint-every 1";
  if (!kill_spec.empty()) command += " --kill-at " + kill_spec;
  ShardSpec spec;
  spec.name = name;
  spec.checkpoint_dir = dir;
  spec.transport = std::make_unique<service::PipeTransport>(command, 120.0);
  return router.add_shard(std::move(spec));
}

/// First "<stem><i>" owned by `owner` on the N-member ring — and, when
/// `grown_owner` is set, claimed by that member once "shard-N" joins.
/// Lets a schedule pin exactly which worker hosts (and loses) a session.
std::string find_session(const std::string& stem, std::size_t workers,
                         const std::string& owner,
                         const std::string& grown_owner = "") {
  HashRing base;
  for (std::size_t i = 0; i < workers; ++i) {
    base.add("shard-" + std::to_string(i));
  }
  HashRing grown = base;
  grown.add_node("shard-" + std::to_string(workers));
  for (int i = 0;; ++i) {
    const std::string name = stem + std::to_string(i);
    if (base.owner(name) != owner) continue;
    if (!grown_owner.empty() && grown.owner(name) != grown_owner) continue;
    return name;
  }
}

json::Value call_router(Router& router, const json::Value& request) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    json::Value response = router.handle(request);
    if (!response.bool_or("redirected", false)) return response;
  }
  ADD_FAILURE() << "request redirected 20 times: " << request.dump();
  return json::Value();
}

/// One session stepped round by round, so a schedule can interleave
/// sessions and splice a ring grow mid-traffic.
struct Stepper {
  std::string name;
  unsigned seed = 0;
  util::Rng rng{0};
  bool done = false;
};

void start_session(Router& router, std::vector<std::string>& stream,
                   Stepper& s) {
  const json::Value created =
      call_router(router, create_request(s.name, s.seed));
  EXPECT_TRUE(created.bool_or("ok", false)) << created.dump();
  stream.push_back(canonical(created));
  s.rng = util::Rng(std::stoull(created.at("measure_seed").as_string()));
}

void step_session(Router& router, std::vector<std::string>& stream,
                  Stepper& s, const auto& workload) {
  if (s.done) return;
  const json::Value batch =
      call_router(router, session_request("ask", s.name));
  EXPECT_TRUE(batch.bool_or("ok", false)) << batch.dump();
  stream.push_back(canonical(batch));
  const json::Array& candidates = batch.at("candidates").as_array();
  if (candidates.empty()) {
    s.done = true;
    return;
  }
  for (const json::Value& candidate : candidates) {
    const auto config =
        service::configuration_from_json(candidate.at("levels"));
    const double t = workload->measure(config, s.rng, 1);
    json::Object tell;
    tell.emplace("op", json::Value("tell"));
    tell.emplace("session", json::Value(s.name));
    tell.emplace("levels", candidate.at("levels"));
    tell.emplace("time", json::Value(t));
    const json::Value told = call_router(router, json::Value(std::move(tell)));
    EXPECT_TRUE(told.bool_or("ok", false)) << told.dump();
    stream.push_back(canonical(told));
  }
}

/// Creates every session, runs two interleaved rounds, fires `mid`
/// (e.g. a ring grow), then drives everything to completion.
std::vector<std::string> run_schedule(
    Router& router, std::vector<Stepper> sessions,
    const std::function<void(Router&)>& mid = {}) {
  std::vector<std::string> stream;
  const auto workload = workloads::make_workload("gesummv");
  for (Stepper& s : sessions) start_session(router, stream, s);
  for (int round = 0; round < 2; ++round) {
    for (Stepper& s : sessions) step_session(router, stream, s, workload);
  }
  if (mid) mid(router);
  for (int guard = 0; guard < 100; ++guard) {
    bool all_done = true;
    for (Stepper& s : sessions) {
      step_session(router, stream, s, workload);
      all_done = all_done && s.done;
    }
    if (all_done) break;
  }
  for (Stepper& s : sessions) {
    stream.push_back(
        canonical(call_router(router, session_request("status", s.name))));
  }
  return stream;
}

void expect_streams_equal(const std::vector<std::string>& got,
                          const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "response " << i;
  }
}

TEST(RouterChaos, WarmPromotionOnPrimaryDeathMidReplication) {
  // --standby fleet: the primary dies with a tell applied in memory only,
  // mid-replication-window (the record for it was never acked, so it was
  // never streamed). The ring successor's live shadow sits exactly at the
  // ack horizon; failover must PROMOTE it and replay the in-flight tell —
  // zero cold resume, bit-identical stream.
  RouterOptions options;
  options.standby = true;
  const std::string name = "chaos-warm";
  HashRing ring;
  ring.add("shard-0");
  ring.add("shard-1");
  const std::string owner = ring.owner(name);

  auto control = make_ha_fleet("warm_ctl", 2, {}, options);
  auto chaos = make_ha_fleet(
      "warm_kill", 2, {{owner, "session_manager.tell.applied:5"}}, options);

  const auto expected = drive(*control, name, 211);
  const auto observed = drive(*chaos, name, 211);
  expect_streams_equal(observed, expected);

  EXPECT_EQ(chaos->stats().failovers, 1u);
  EXPECT_EQ(chaos->stats().promotions, 1u);
  EXPECT_EQ(chaos->stats().rehomes, 0u);
  EXPECT_EQ(chaos->stats().standby_fallbacks, 0u);
  EXPECT_EQ(chaos->stats().synthesized, 0u);
  EXPECT_EQ(chaos->stats().replays, 1u);
  EXPECT_GT(chaos->stats().replicated_ops, 0u);
  chaos->handle(json::parse(R"({"op":"shutdown"})"));
  control->handle(json::parse(R"({"op":"shutdown"})"));
}

TEST(RouterChaos, StandbyDeathMidPromotionFallsBackToColdRehome) {
  // The standby is armed to die on the promote request itself — the
  // narrowest window in the failover path. The router must detect the
  // second death mid-promotion and fall back to the cold checkpoint
  // re-home on the last survivor, still bit-identically.
  RouterOptions options;
  options.standby = true;
  const std::string name = "chaos-standby-dies";
  HashRing ring;
  ring.add("shard-0");
  ring.add("shard-1");
  ring.add("shard-2");
  const auto order = ring.owners(name, 2);

  auto control = make_ha_fleet("sdie_ctl", 3, {}, options);
  auto chaos = make_ha_fleet("sdie_kill", 3,
                             {{order[0], "session_manager.tell.applied:5"},
                              {order[1], "protocol.promote"}},
                             options);

  const auto expected = drive(*control, name, 223);
  const auto observed = drive(*chaos, name, 223);
  expect_streams_equal(observed, expected);

  EXPECT_EQ(chaos->stats().failovers, 2u);
  EXPECT_EQ(chaos->stats().promotions, 0u);
  EXPECT_EQ(chaos->stats().standby_fallbacks, 1u);
  EXPECT_EQ(chaos->stats().rehomes, 1u);
  chaos->handle(json::parse(R"({"op":"shutdown"})"));
  control->handle(json::parse(R"({"op":"shutdown"})"));
}

TEST(RouterChaos, GrowAbortsCleanlyWhenImporterDiesAtCommit) {
  // Mid-migration death on the receiving end: the new worker dies resuming
  // the migration image, after reading it but before installing the
  // session. The grow must abort all-or-nothing — ring unchanged, the
  // session keeps serving from its old home, stream bit-identical to a
  // fleet that never grew.
  const std::string mover = find_session("chaos-mig-", 2, "shard-0",
                                         "shard-2");
  std::vector<Stepper> sessions(1);
  sessions[0].name = mover;
  sessions[0].seed = 227;

  auto control = make_ha_fleet("icommit_ctl", 2, {});
  auto chaos = make_ha_fleet("icommit_kill", 2, {});
  const auto expected = run_schedule(*control, sessions);
  const auto observed =
      run_schedule(*chaos, sessions, [](Router& router) {
        const json::Value grown =
            grow_fleet(router, "icommit", "shard-2",
                       "session_manager.resume.parsed");
        EXPECT_FALSE(grown.bool_or("ok", true)) << grown.dump();
        EXPECT_NE(grown.string_or("error", "").find("grow aborted"),
                  std::string::npos);
      });
  expect_streams_equal(observed, expected);

  EXPECT_EQ(chaos->stats().grows, 0u);
  EXPECT_EQ(chaos->stats().migrated_sessions, 0u);
  EXPECT_EQ(chaos->stats().rehomes, 0u);
  EXPECT_FALSE(chaos->ring().contains("shard-2"));
  chaos->handle(json::parse(R"({"op":"shutdown"})"));
  control->handle(json::parse(R"({"op":"shutdown"})"));
}

TEST(RouterChaos, GrowSurvivesExporterDeathMidMigration) {
  // Mid-migration death on the sending end: the old owner dies on the
  // migration checkpoint request, before writing a byte of the image. The
  // grow aborts, the old owner's death triggers a normal failover, and the
  // session finishes from its checkpoint on the survivor — bit-identical
  // throughout. By the grow, shard-0 has written 9 images of this session
  // (the router's baseline after create, then one per tell: 6 cold-start
  // labels and a batch of 2), so its 10th write is the migration's.
  const std::string mover = find_session("chaos-exp-", 2, "shard-0",
                                         "shard-2");
  std::vector<Stepper> sessions(1);
  sessions[0].name = mover;
  sessions[0].seed = 229;

  auto control = make_ha_fleet("oldhome_ctl", 2, {});
  auto chaos =
      make_ha_fleet("oldhome_kill", 2, {{"shard-0", "atomic_write.begin:9"}});
  const auto expected = run_schedule(*control, sessions);
  const auto observed =
      run_schedule(*chaos, sessions, [](Router& router) {
        const json::Value grown = grow_fleet(router, "oldhome", "shard-2");
        EXPECT_FALSE(grown.bool_or("ok", true)) << grown.dump();
      });
  expect_streams_equal(observed, expected);

  EXPECT_EQ(chaos->stats().grows, 0u);
  EXPECT_EQ(chaos->stats().migrated_sessions, 0u);
  EXPECT_EQ(chaos->stats().rehomes, 1u);
  EXPECT_GE(chaos->stats().failovers, 1u);
  EXPECT_FALSE(chaos->ring().contains("shard-2"));
  EXPECT_FALSE(chaos->shard_up("shard-0"));
  chaos->handle(json::parse(R"({"op":"shutdown"})"));
  control->handle(json::parse(R"({"op":"shutdown"})"));
}

TEST(RouterChaos, GrowUnderBurstKeepsStreamsBitIdentical) {
  // Three interleaved sessions mid-drive when a healthy worker joins the
  // ring: exactly the sessions the grown ring claims migrate (checkpointed
  // into the new worker's directory and resumed there), ownership flips
  // atomically, and every stream stays bit-identical to a never-growing
  // control fleet.
  std::vector<Stepper> sessions(3);
  sessions[0].name = find_session("chaos-burst-a-", 2, "shard-0", "shard-2");
  sessions[0].seed = 233;
  sessions[1].name = find_session("chaos-burst-b-", 2, "shard-0", "shard-0");
  sessions[1].seed = 239;
  sessions[2].name = find_session("chaos-burst-c-", 2, "shard-1", "shard-1");
  sessions[2].seed = 241;

  auto control = make_ha_fleet("burst_ctl", 2, {});
  auto chaos = make_ha_fleet("burst_grow", 2, {});
  const auto expected = run_schedule(*control, sessions);
  const auto observed =
      run_schedule(*chaos, sessions, [](Router& router) {
        const json::Value grown = grow_fleet(router, "burst", "shard-2");
        EXPECT_TRUE(grown.bool_or("ok", false)) << grown.dump();
        EXPECT_GE(grown.number_or("migrated", 0.0), 1.0);
      });
  expect_streams_equal(observed, expected);

  EXPECT_EQ(chaos->stats().grows, 1u);
  EXPECT_GE(chaos->stats().migrated_sessions, 1u);
  EXPECT_EQ(chaos->stats().failovers, 0u);
  EXPECT_TRUE(chaos->ring().contains("shard-2"));

  // The migrated session is served from the new worker, not redirected.
  const json::Value status =
      chaos->handle(session_request("status", sessions[0].name));
  EXPECT_TRUE(status.bool_or("ok", false)) << status.dump();
  chaos->handle(json::parse(R"({"op":"shutdown"})"));
  control->handle(json::parse(R"({"op":"shutdown"})"));
}

TEST(RouterChaos, KillMidFitSynthesizesTheCheckpointedTell) {
  // The worker dies inside the refit: the triggering tell is already
  // durable (workers checkpoint before fitting), only the ack was lost.
  expect_bit_identical_failover("fit", "ask_tell_session.fit_model:3", 101);
}

TEST(RouterChaos, KillAfterTellAppliedReplaysTheUndurableTell) {
  // The worker dies after applying the tell in memory but before the
  // auto-checkpoint: nothing durable changed, so the replay on the new
  // home is the first real application.
  expect_bit_identical_failover("tell", "session_manager.tell.applied:4",
                                103);
}

TEST(RouterChaos, KillMidCheckpointWriteResumesThePreviousImage) {
  // The worker dies half-way through writing the post-tell checkpoint.
  // The atomic-write protocol leaves the previous image intact (the torn
  // temp never renamed over it), so failover resumes one tell back and
  // replays the in-flight tell.
  expect_bit_identical_failover("ckpt", "atomic_write.mid_write:2", 107);
}

TEST(RouterChaos, HealthReportsTheFailoverAftermath) {
  const std::string name = "chaos-health";
  auto fleet = make_fleet("health", name, "ask_tell_session.fit_model:1");
  drive(*fleet, name, 109);

  const json::Value response =
      fleet->handle(json::parse(R"({"op":"health"})"));
  ASSERT_TRUE(response.bool_or("ok", false));
  const json::Value& health = response.at("health");
  EXPECT_EQ(health.string_or("role", ""), "router");
  EXPECT_EQ(health.at("ring").at("members").as_array().size(), 1u);
  EXPECT_EQ(health.at("counters").number_or("failovers", 0.0), 1.0);
  EXPECT_EQ(health.at("counters").number_or("rehomes", 0.0), 1.0);
  EXPECT_EQ(health.number_or("sessions_parked", -1.0), 0.0);

  std::size_t up = 0, down = 0;
  for (const json::Value& shard : health.at("shards").as_array()) {
    if (shard.string_or("state", "") == "up") {
      ++up;
      EXPECT_TRUE(shard.at("worker").is_object());
    } else {
      ++down;
    }
  }
  EXPECT_EQ(up, 1u);
  EXPECT_EQ(down, 1u);
  fleet->handle(json::parse(R"({"op":"shutdown"})"));
}

}  // namespace
}  // namespace pwu::router
