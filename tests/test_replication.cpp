// Warm-standby replication and live ring growth, driven entirely
// in-process (the `ha` suite). The acceptance bar mirrors the router
// chaos harness: across promotions, staleness fallbacks, and mid-traffic
// growth, the client-visible response stream must stay bit-identical
// (modulo the "checkpoint" path field) to a lone healthy SessionManager.
//
// The kill-switch transport injects the same connection-death shapes the
// multi-process harness produces with real SIGKILLs; replication-specific
// needles ("op":"replicate", "op":"promote") let tests kill standbys at
// the exact protocol step under test.

#include "router/replication.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "router/hash_ring.hpp"
#include "router/router.hpp"
#include "service/protocol.hpp"
#include "service/session_manager.hpp"
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
  const fs::path dir = fs::temp_directory_path() / ("pwu_ha_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Same deterministic connection-death injector the router suite uses.
class KillSwitchTransport : public service::Transport {
 public:
  explicit KillSwitchTransport(const std::string& checkpoint_dir,
                               std::size_t checkpoint_every = 1)
      : inner_(nullptr, service::ServiceLimits{}, checkpoint_dir,
               checkpoint_every) {}

  void arm_send_kill(std::string needle, int nth) {
    send_needle_ = std::move(needle);
    send_countdown_ = nth;
  }

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

/// N-shard router over kill-switch transports (shards named s0..sN-1).
struct Fleet {
  std::unique_ptr<Router> router;
  std::vector<KillSwitchTransport*> transports;
  std::vector<std::string> dirs;
};

Fleet make_fleet(const std::string& tag, std::size_t shards,
                 RouterOptions options = {}, std::size_t checkpoint_every = 1) {
  Fleet fleet;
  std::vector<ShardSpec> specs(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string name = "s" + std::to_string(i);
    fleet.dirs.push_back(fresh_dir(tag + "_" + name));
    auto transport = std::make_unique<KillSwitchTransport>(fleet.dirs[i],
                                                           checkpoint_every);
    fleet.transports.push_back(transport.get());
    specs[i].name = name;
    specs[i].transport = std::move(transport);
    specs[i].checkpoint_dir = fleet.dirs[i];
  }
  fleet.router = std::make_unique<Router>(std::move(specs), options);
  return fleet;
}

/// Slot owning `session` on a ring of `shards` members, plus the slot of
/// its ring successor (the standby host).
std::pair<int, int> placement(const std::string& session,
                              std::size_t shards) {
  HashRing ring;
  for (std::size_t i = 0; i < shards; ++i) ring.add("s" + std::to_string(i));
  const auto order = ring.owners(session, 2);
  const auto slot = [](const std::string& name) {
    return std::stoi(name.substr(1));
  };
  return {slot(order[0]), order.size() > 1 ? slot(order[1]) : -1};
}

/// A session name homed on `owner` (and, when standby >= 0, whose ring
/// successor is `standby`) on a ring of `shards` members.
std::string session_at(std::size_t shards, int owner, int standby = -1,
                       int salt = 0) {
  for (int i = salt * 1000;; ++i) {
    const std::string name = "sess-" + std::to_string(i);
    const auto [got_owner, got_standby] = placement(name, shards);
    if (got_owner == owner && (standby < 0 || got_standby == standby)) {
      return name;
    }
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

std::string canonical(json::Value response) {
  if (response.is_object()) response.as_object().erase("checkpoint");
  return response.dump();
}

template <typename Dispatch>
json::Value call(Dispatch&& dispatch, const json::Value& request) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    json::Value response = dispatch(request);
    if (!response.bool_or("redirected", false)) return response;
  }
  ADD_FAILURE() << "request redirected 20 times: " << request.dump();
  return json::Value();
}

/// Drives one session to completion, recording every canonical response.
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

void expect_streams_equal(const std::vector<std::string>& got,
                          const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "response " << i;
  }
}

// ---- StandbyTracker units --------------------------------------------------

TEST(StandbyTracker, ArmEnqueueFlushAckLifecycle) {
  StandbyTracker tracker;
  EXPECT_EQ(tracker.state("a"), nullptr);
  EXPECT_EQ(tracker.lag("a"), 0u);

  tracker.arm("a", 2);
  const StandbyState* st = tracker.state("a");
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->valid);
  EXPECT_FALSE(st->stale);
  EXPECT_EQ(st->shard, 2u);

  OpRecord record;
  record.request = R"({"op":"ask","session":"a"})";
  tracker.enqueue("a", record);
  tracker.enqueue("a", record);
  EXPECT_EQ(tracker.lag("a"), 2u);

  const std::vector<OpRecord> outbox = tracker.take_outbox("a");
  EXPECT_EQ(outbox.size(), 2u);
  EXPECT_EQ(tracker.lag("a"), 0u);
  tracker.ack("a", outbox.size());
  EXPECT_EQ(tracker.state("a")->acked_ops, 2u);

  // Enqueue on an untracked session is a silent no-op, not a crash.
  tracker.drop("a");
  tracker.enqueue("a", record);
  EXPECT_EQ(tracker.lag("a"), 0u);
  EXPECT_EQ(tracker.state("a"), nullptr);
}

TEST(StandbyTracker, ReArmClearsStaleness) {
  StandbyTracker tracker;
  tracker.arm("a", 0);
  tracker.mark_stale("a");
  EXPECT_TRUE(tracker.state("a")->stale);
  tracker.arm("a", 1);
  EXPECT_FALSE(tracker.state("a")->stale);
  EXPECT_EQ(tracker.state("a")->shard, 1u);
}

TEST(StandbyTracker, InvalidateShardMarksOnlyItsShadowsStale) {
  StandbyTracker tracker;
  tracker.arm("a", 0);
  tracker.arm("b", 1);
  tracker.arm("c", 0);
  tracker.invalidate_shard(0);
  EXPECT_TRUE(tracker.state("a")->stale);
  EXPECT_FALSE(tracker.state("b")->stale);
  EXPECT_TRUE(tracker.state("c")->stale);
}

// ---- digest / ack verification units ---------------------------------------

TEST(Replication, DigestIgnoresCheckpointPathsOnly) {
  const json::Value a = json::parse(
      R"({"ok":true,"labeled":7,"checkpoint":"/tmp/s0/x.ckpt"})");
  const json::Value b = json::parse(
      R"({"ok":true,"labeled":7,"checkpoint":"/tmp/s1/x.ckpt"})");
  const json::Value c = json::parse(
      R"({"ok":true,"labeled":8,"checkpoint":"/tmp/s0/x.ckpt"})");
  EXPECT_EQ(response_digest(a), response_digest(b));
  EXPECT_NE(response_digest(a), response_digest(c));
}

TEST(Replication, AckVerificationChecksOkDigestAndLabeled) {
  OpRecord record;
  record.request = R"({"op":"tell","session":"a","levels":[1],"time":0.5})";
  const json::Value applied =
      json::parse(R"({"ok":true,"labeled":3,"refit":true,"done":false})");
  record.digest = response_digest(applied);
  record.expect_labeled = 3;

  json::Object good;
  good.emplace("ok", json::Value(true));
  good.emplace("applied", applied);
  EXPECT_TRUE(replicate_ack_matches(record, json::Value(good)));

  // Outer failure, missing applied, inner failure, digest drift, and
  // labeled drift each individually fail verification.
  json::Object outer_bad = good;
  outer_bad["ok"] = json::Value(false);
  EXPECT_FALSE(replicate_ack_matches(record, json::Value(outer_bad)));

  json::Object no_applied;
  no_applied.emplace("ok", json::Value(true));
  EXPECT_FALSE(replicate_ack_matches(record, json::Value(no_applied)));

  json::Object drifted = good;
  drifted["applied"] =
      json::parse(R"({"ok":true,"labeled":3,"refit":false,"done":false})");
  EXPECT_FALSE(replicate_ack_matches(record, json::Value(drifted)));

  OpRecord labeled_only;
  labeled_only.request = record.request;
  labeled_only.expect_labeled = 4;
  EXPECT_FALSE(replicate_ack_matches(labeled_only, json::Value(good)));

  // With no hooks armed, outer+inner ok is enough (checkpoint mirrors).
  OpRecord unarmed;
  unarmed.request = record.request;
  EXPECT_TRUE(replicate_ack_matches(unarmed, json::Value(good)));
}

// ---- protocol-level shadow lifecycle ---------------------------------------

TEST(Replication, ReplicatedShadowIsHiddenUntilPromoted) {
  const std::string dir = fresh_dir("shadow_lifecycle");
  service::SessionManager primary;
  service::SessionManager standby;

  const json::Value created =
      service::handle_request(primary, create_request("shadowed", 5));
  ASSERT_TRUE(created.bool_or("ok", false)) << created.dump();
  primary.checkpoint_to_file("shadowed", dir + "/shadowed.ckpt");

  // Replicate a resume record: the shadow materializes but stays hidden.
  json::Object wrapped;
  wrapped.emplace("op", json::Value("replicate"));
  wrapped.emplace("session", json::Value("shadowed"));
  wrapped.emplace("record",
                  json::parse(R"({"op":"resume","session":"shadowed",)"
                              R"("path":")" + dir + R"(/shadowed.ckpt"})"));
  const json::Value replicated =
      service::handle_request(standby, json::Value(wrapped));
  ASSERT_TRUE(replicated.bool_or("ok", false)) << replicated.dump();
  EXPECT_TRUE(replicated.at("applied").bool_or("ok", false));
  EXPECT_TRUE(standby.is_shadow("shadowed"));

  const json::Value listed =
      service::handle_request(standby, json::parse(R"({"op":"list"})"));
  EXPECT_TRUE(listed.at("sessions").as_array().empty()) << listed.dump();
  const json::Value health =
      service::handle_request(standby, json::parse(R"({"op":"health"})"));
  EXPECT_EQ(health.at("health").number_or("sessions_shadow", -1.0), 1.0);

  // Promotion flips it into an ordinary serving session.
  const json::Value promoted = service::handle_request(
      standby, session_request("promote", "shadowed"));
  ASSERT_TRUE(promoted.bool_or("ok", false)) << promoted.dump();
  EXPECT_FALSE(standby.is_shadow("shadowed"));
  EXPECT_EQ(service::handle_request(standby, json::parse(R"({"op":"list"})"))
                .at("sessions")
                .as_array()
                .size(),
            1u);
}

TEST(Replication, CheckpointThenResumeMovesASessionWithAsksOutstanding) {
  // The step ring growth migrates a session with: its home checkpoints the
  // live session into a directory (the new home's), and a second manager
  // resumes it from that file. Outstanding asks travel in the image, so
  // both copies answer status and every later tell and ask identically.
  service::SessionManager source;
  service::SessionManager target;
  const std::string path = fresh_dir("migrate_image") + "/mover.ckpt";
  ASSERT_TRUE(service::handle_request(source, create_request("mover", 9))
                  .bool_or("ok", false));
  const json::Value asked =
      service::handle_request(source, session_request("ask", "mover"));
  ASSERT_TRUE(asked.bool_or("ok", false)) << asked.dump();
  const json::Array& candidates = asked.at("candidates").as_array();
  ASSERT_FALSE(candidates.empty());

  json::Value checkpoint = session_request("checkpoint", "mover");
  checkpoint.as_object().emplace("path", json::Value(path));
  const json::Value written = service::handle_request(source, checkpoint);
  ASSERT_TRUE(written.bool_or("ok", false)) << written.dump();
  json::Value resume = session_request("resume", "mover");
  resume.as_object().emplace("path", json::Value(path));
  const json::Value resumed = service::handle_request(target, resume);
  ASSERT_TRUE(resumed.bool_or("ok", false)) << resumed.dump();
  EXPECT_EQ(resumed.at("status").number_or("pending", -1.0),
            static_cast<double>(candidates.size()));

  const auto both = [&](const json::Value& request) {
    const std::string want =
        canonical(service::handle_request(source, request));
    EXPECT_EQ(canonical(service::handle_request(target, request)), want)
        << request.dump();
    return json::parse(want);
  };
  both(session_request("status", "mover"));
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double t = 0.5 + 0.125 * static_cast<double>(i);
    const json::Value told =
        both(tell_request("mover", candidates[i].at("levels"), t));
    EXPECT_TRUE(told.bool_or("ok", false)) << told.dump();
  }
  const json::Value next = both(session_request("ask", "mover"));
  EXPECT_FALSE(next.at("candidates").as_array().empty()) << next.dump();
  both(session_request("status", "mover"));
}

// ---- warm promotion --------------------------------------------------------

TEST(Replication, WarmPromotionKeepsStreamBitIdentical) {
  RouterOptions options;
  options.standby = true;
  options.replication_lag_max = 2;
  Fleet fleet = make_fleet("promote", 2, options);
  const std::string name = session_at(2, 0, 1);
  // The primary applies and auto-checkpoints the 5th tell, then dies
  // before answering — the hardest failover shape (synthesize-vs-replay).
  fleet.transports[0]->arm_recv_kill(R"("op":"tell")", 5);

  const auto via_router = drive_router(*fleet.router, name, 7);
  const auto direct = drive_direct(name, 7);
  expect_streams_equal(via_router, direct);
  EXPECT_EQ(fleet.router->stats().failovers, 1u);
  EXPECT_EQ(fleet.router->stats().promotions, 1u);
  EXPECT_EQ(fleet.router->stats().rehomes, 0u);
  EXPECT_EQ(fleet.router->stats().standby_fallbacks, 0u);
  EXPECT_GT(fleet.router->stats().replicated_ops, 0u);
  EXPECT_FALSE(fleet.router->shard_up("s0"));
}

TEST(Replication, PromotionNeverSynthesizesUnreplicatedTells) {
  // The interrupted tell was never acked, so it was never streamed: the
  // promoted shadow sits exactly at the ack horizon and the router must
  // REPLAY the tell (apply it once on the shadow), never synthesize.
  RouterOptions options;
  options.standby = true;
  Fleet fleet = make_fleet("promote_replay", 2, options);
  const std::string name = session_at(2, 1, 0);
  fleet.transports[1]->arm_recv_kill(R"("op":"tell")", 4);

  const auto via_router = drive_router(*fleet.router, name, 13);
  const auto direct = drive_direct(name, 13);
  expect_streams_equal(via_router, direct);
  EXPECT_EQ(fleet.router->stats().promotions, 1u);
  EXPECT_EQ(fleet.router->stats().synthesized, 0u);
  EXPECT_EQ(fleet.router->stats().replays, 1u);
}

TEST(Replication, DeadStandbyFallsBackToColdRehome) {
  // 3 shards: the primary dies mid-tell and the standby dies on the very
  // promote request — the worst failover shape. Promotion is impossible,
  // so failover must fall back to the PR-6 cold checkpoint path on the
  // remaining survivor — still bit-identical (the interrupted tell was
  // durably applied on the primary, so the cold path must synthesize it).
  RouterOptions options;
  options.standby = true;
  options.replication_lag_max = 1;  // every acked op flushes immediately
  Fleet fleet = make_fleet("stale", 3, options);
  const std::string name = session_at(3, 0, 1);
  fleet.transports[1]->arm_send_kill(R"("op":"promote")", 1);
  fleet.transports[0]->arm_recv_kill(R"("op":"tell")", 6);

  const auto via_router = drive_router(*fleet.router, name, 23);
  const auto direct = drive_direct(name, 23);
  expect_streams_equal(via_router, direct);
  EXPECT_EQ(fleet.router->stats().promotions, 0u);
  EXPECT_GE(fleet.router->stats().standby_fallbacks, 1u);
  EXPECT_GE(fleet.router->stats().rehomes, 1u);
  EXPECT_EQ(fleet.router->stats().failovers, 2u);
  EXPECT_FALSE(fleet.router->shard_up("s0"));
  EXPECT_FALSE(fleet.router->shard_up("s1"));
  EXPECT_TRUE(fleet.router->shard_up("s2"));
}

TEST(Replication, ReplayLogCapForcesCheckpointsAndSurvivesPromotion) {
  // Workers that checkpoint lazily (every 100 tells) leave acked asks
  // undurable; the replay log holds one entry per ask since the last
  // durable point, and the configured cap must bound it by forcing an
  // explicit checkpoint (mirrored to the standby) when exceeded.
  RouterOptions options;
  options.standby = true;
  options.max_replay_log = 2;
  Fleet fleet = make_fleet("replay_cap", 2, options, /*checkpoint_every=*/100);
  Router& router = *fleet.router;
  const std::string name = session_at(2, 0, 1);
  const json::Value created = router.handle(create_request(name, 21));
  ASSERT_TRUE(created.bool_or("ok", false)) << created.dump();
  const auto workload = workloads::make_workload("gesummv");
  util::Rng measure_rng(std::stoull(created.at("measure_seed").as_string()));

  // Three ask/tell rounds with no durable tell checkpoint in between: the
  // third ask trips the cap and forces a checkpoint, clearing the log.
  for (int round = 0; round < 3; ++round) {
    const json::Value batch = router.handle(session_request("ask", name));
    ASSERT_TRUE(batch.bool_or("ok", false)) << batch.dump();
    if (round == 2) break;  // leave the capping ask's candidates pending
    for (const json::Value& candidate : batch.at("candidates").as_array()) {
      const auto config =
          service::configuration_from_json(candidate.at("levels"));
      const double t = workload->measure(config, measure_rng, 1);
      ASSERT_TRUE(router.handle(tell_request(name, candidate.at("levels"), t))
                      .bool_or("ok", false));
    }
  }
  const json::Value health = router.handle(json::parse(R"({"op":"health"})"));
  const json::Value& replication = health.at("health").at("replication");
  EXPECT_TRUE(replication.bool_or("enabled", false));
  EXPECT_EQ(replication.number_or("max_replay_log", 0.0), 2.0);
  const json::Array& sessions = replication.at("sessions").as_array();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].string_or("session", ""), name);
  EXPECT_EQ(sessions[0].string_or("home", ""), "s0");
  EXPECT_EQ(sessions[0].string_or("standby", ""), "s1");
  EXPECT_FALSE(sessions[0].bool_or("stale", true));
  EXPECT_LE(sessions[0].number_or("replay_log_depth", 99.0), 2.0);

  // The capped session still promotes warm with its outstanding asks.
  fleet.transports[0]->arm_send_kill(R"("op":"status")", 1);
  const json::Value status =
      call([&](const json::Value& r) { return router.handle(r); },
           session_request("status", name));
  ASSERT_TRUE(status.bool_or("ok", false)) << status.dump();
  EXPECT_EQ(router.stats().promotions, 1u);
  EXPECT_EQ(status.at("status").number_or("pending", -1.0), 2.0);
}

TEST(Replication, StandbyShadowsAreInvisibleToClients) {
  RouterOptions options;
  options.standby = true;
  Fleet fleet = make_fleet("hidden", 2, options);
  const std::string name = session_at(2, 0, 1);
  ASSERT_TRUE(
      fleet.router->handle(create_request(name, 3)).bool_or("ok", false));

  // The shadow physically exists on s1 (its bootstrap checkpoint proves
  // it), yet the merged list shows exactly one session.
  const json::Value listed =
      fleet.router->handle(json::parse(R"({"op":"list"})"));
  ASSERT_TRUE(listed.bool_or("ok", false));
  EXPECT_EQ(listed.at("sessions").as_array().size(), 1u);
  EXPECT_TRUE(fs::exists(fs::path(fleet.dirs[1]) / (name + ".ckpt")));
}

// ---- ring growth -----------------------------------------------------------

/// Adds a fresh in-process shard named `name` to the fleet's router.
json::Value grow(Fleet& fleet, const std::string& name) {
  const std::string dir = fresh_dir("grow_" + name);
  ShardSpec spec;
  spec.name = name;
  spec.checkpoint_dir = dir;
  spec.transport = std::make_unique<service::InProcessTransport>(
      nullptr, service::ServiceLimits{}, dir, 1);
  return fleet.router->add_shard(std::move(spec));
}

TEST(Growth, MidTrafficGrowKeepsStreamsBitIdentical) {
  // Several sessions driven halfway, the ring grows (migrating whichever
  // sessions the new shard claims), then the drives finish. Every stream
  // must match a never-growing control fleet bit for bit.
  Fleet fleet = make_fleet("grow_a", 2);
  Fleet control = make_fleet("grow_b", 2);
  const auto workload = workloads::make_workload("gesummv");

  struct Driven {
    std::string name;
    util::Rng rng{0};
    bool done = false;
  };
  std::vector<Driven> driven;
  for (int i = 0; i < 4; ++i) {
    Driven d;
    d.name = "grow-sess-" + std::to_string(i);
    driven.push_back(std::move(d));
  }

  std::vector<std::vector<std::string>> streams(2);  // [fleet, control]
  const auto step =
      [&](Router& router, std::vector<std::string>& stream, Driven& d,
          bool init) {
        if (d.done) return;
        if (init) {
          const json::Value created =
              router.handle(create_request(d.name, 77));
          ASSERT_TRUE(created.bool_or("ok", false)) << created.dump();
          stream.push_back(canonical(created));
          d.rng = util::Rng(
              std::stoull(created.at("measure_seed").as_string()));
          return;
        }
        const json::Value batch =
            router.handle(session_request("ask", d.name));
        ASSERT_TRUE(batch.bool_or("ok", false)) << batch.dump();
        stream.push_back(canonical(batch));
        const json::Array& candidates = batch.at("candidates").as_array();
        if (candidates.empty()) {
          d.done = true;
          return;
        }
        for (const json::Value& candidate : candidates) {
          const auto config =
              service::configuration_from_json(candidate.at("levels"));
          const double t = workload->measure(config, d.rng, 1);
          const json::Value told = router.handle(
              tell_request(d.name, candidate.at("levels"), t));
          ASSERT_TRUE(told.bool_or("ok", false)) << told.dump();
          stream.push_back(canonical(told));
        }
      };

  // RNG streams must advance identically in both fleets, so run the same
  // schedule twice with independent Driven state.
  for (int run = 0; run < 2; ++run) {
    Router& router = run == 0 ? *fleet.router : *control.router;
    std::vector<Driven> local = driven;
    // Halfway: create + two ask/tell rounds.
    for (Driven& d : local) step(router, streams[run], d, true);
    for (int round = 0; round < 2; ++round) {
      for (Driven& d : local) step(router, streams[run], d, false);
    }
    if (run == 0) {
      const json::Value grown = grow(fleet, "s2");
      ASSERT_TRUE(grown.bool_or("ok", false)) << grown.dump();
      EXPECT_GE(grown.number_or("migrated", -1.0), 1.0);
      EXPECT_TRUE(fleet.router->ring().contains("s2"));
      EXPECT_EQ(fleet.router->stats().grows, 1u);
    }
    // Finish every session.
    for (int guard = 0; guard < 100; ++guard) {
      bool all_done = true;
      for (Driven& d : local) {
        step(router, streams[run], d, false);
        all_done = all_done && d.done;
      }
      if (all_done) break;
    }
    for (Driven& d : local) {
      streams[run].push_back(
          canonical(router.handle(session_request("status", d.name))));
    }
  }
  expect_streams_equal(streams[0], streams[1]);
  EXPECT_GE(fleet.router->stats().migrated_sessions, 1u);
}

TEST(Growth, GrowRespectsMinimalRemappingOnTheLiveRouter) {
  // Only the sessions the grown ring assigns to the new shard migrate;
  // everything else keeps its home (checkpoint dirs prove placement).
  Fleet fleet = make_fleet("grow_minimal", 2);
  std::vector<std::string> names;
  for (int i = 0; i < 6; ++i) {
    names.push_back("min-sess-" + std::to_string(i));
    ASSERT_TRUE(fleet.router->handle(create_request(names.back(), 50 + i))
                    .bool_or("ok", false));
  }
  HashRing before;
  before.add("s0");
  before.add("s1");
  HashRing after = before;
  after.add_node("s2");

  ASSERT_TRUE(grow(fleet, "s2").bool_or("ok", false));
  std::uint64_t expected_moves = 0;
  for (const std::string& name : names) {
    if (after.owner(name) == "s2") ++expected_moves;
    // Post-grow placement must match the pure-ring prediction; status is
    // served from the predicted home (no redirect, no error).
    const json::Value status =
        fleet.router->handle(session_request("status", name));
    EXPECT_TRUE(status.bool_or("ok", false)) << status.dump();
  }
  EXPECT_EQ(fleet.router->stats().migrated_sessions, expected_moves);
}

TEST(Growth, DuplicateAndUnreachableShardsAreRefused) {
  Fleet fleet = make_fleet("grow_refuse", 2);
  const json::Value dup = grow(fleet, "s0");
  EXPECT_FALSE(dup.bool_or("ok", true));
  EXPECT_NE(dup.string_or("error", "").find("duplicate"), std::string::npos);

  ShardSpec no_transport;
  no_transport.name = "s9";
  no_transport.checkpoint_dir = fresh_dir("grow_nt");
  const json::Value refused =
      fleet.router->add_shard(std::move(no_transport));
  EXPECT_FALSE(refused.bool_or("ok", true));
  EXPECT_EQ(fleet.router->stats().grows, 0u);
  EXPECT_FALSE(fleet.router->ring().contains("s9"));
}

TEST(Growth, GrownShardParticipatesInStandbyReplication) {
  // After growth the rearm pass must cover migrated sessions: kill their
  // new home and expect a warm promotion, not a cold re-home.
  RouterOptions options;
  options.standby = true;
  Fleet fleet = make_fleet("grow_standby", 2, options);
  // Three names the grown 3-member ring assigns to s2 (they start on
  // s0/s1 and must migrate) plus three that stay homed on s0.
  std::vector<std::string> names;
  for (int i = 0; i < 3; ++i) names.push_back(session_at(3, 2, -1, i + 1));
  for (int i = 0; i < 3; ++i) names.push_back(session_at(3, 0, -1, i + 1));
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(
        fleet.router->handle(create_request(names[i], 60 + static_cast<int>(i)))
            .bool_or("ok", false));
  }
  ASSERT_TRUE(grow(fleet, "s2").bool_or("ok", false));
  ASSERT_GE(fleet.router->stats().migrated_sessions, 1u);

  // Kill s0 on its next session op; every session homed there must come
  // back warm (promotion) or cold (rehome) — but never lost.
  fleet.transports[0]->arm_send_kill(R"("op":"status")", 1);
  for (const std::string& name : names) {
    const json::Value status =
        call([&](const json::Value& r) { return fleet.router->handle(r); },
             session_request("status", name));
    EXPECT_TRUE(status.bool_or("ok", false)) << status.dump();
  }
  EXPECT_GE(fleet.router->stats().promotions, 1u);
}

TEST(Growth, FreshlyMigratedHomeFailsOverColdFromTheMigrationImage) {
  // A session migrates with asks outstanding, and its new home dies on the
  // first tell sent to it, before writing any checkpoint of its own. With
  // no standby the cold re-home must resume the image migration left in
  // the new home's directory — pending asks included — and the stream must
  // match a fleet that never grew.
  const std::string name = session_at(3, 2, -1, 9);
  Fleet fleet = make_fleet("grow_cold_a", 2);
  Fleet control = make_fleet("grow_cold_b", 2);
  const auto workload = workloads::make_workload("gesummv");
  const std::string grown_dir = fresh_dir("grow_cold_s2");

  std::vector<std::vector<std::string>> streams(2);  // [fleet, control]
  for (int run = 0; run < 2; ++run) {
    Router& router = run == 0 ? *fleet.router : *control.router;
    std::vector<std::string>& stream = streams[run];
    const auto dispatch = [&](const json::Value& request) {
      return router.handle(request);
    };
    const json::Value created = call(dispatch, create_request(name, 83));
    ASSERT_TRUE(created.bool_or("ok", false)) << created.dump();
    stream.push_back(canonical(created));
    util::Rng rng(std::stoull(created.at("measure_seed").as_string()));
    const auto tell = [&](const json::Value& candidate) {
      const double t = workload->measure(
          service::configuration_from_json(candidate.at("levels")), rng, 1);
      const json::Value told =
          call(dispatch, tell_request(name, candidate.at("levels"), t));
      EXPECT_TRUE(told.bool_or("ok", false)) << told.dump();
      stream.push_back(canonical(told));
    };

    json::Value batch = call(dispatch, session_request("ask", name));
    ASSERT_TRUE(batch.bool_or("ok", false)) << batch.dump();
    stream.push_back(canonical(batch));
    const json::Array& first = batch.at("candidates").as_array();
    ASSERT_GE(first.size(), 3u);
    tell(first[0]);
    tell(first[1]);
    if (run == 0) {
      auto transport = std::make_unique<KillSwitchTransport>(grown_dir);
      transport->arm_send_kill(R"("op":"tell")", 1);
      ShardSpec spec;
      spec.name = "s2";
      spec.transport = std::move(transport);
      spec.checkpoint_dir = grown_dir;
      const json::Value grown = fleet.router->add_shard(std::move(spec));
      ASSERT_TRUE(grown.bool_or("ok", false)) << grown.dump();
      EXPECT_EQ(grown.number_or("migrated", -1.0), 1.0);
      // The resumed file is the new home's only image: migration writes
      // no second checkpoint over it.
      EXPECT_TRUE(fs::exists(fs::path(grown_dir) / (name + ".ckpt")));
      EXPECT_FALSE(fs::exists(fs::path(grown_dir) / (name + ".ckpt.bak")));
    }
    for (std::size_t i = 2; i < first.size(); ++i) tell(first[i]);
    for (int guard = 0; guard < 100; ++guard) {
      batch = call(dispatch, session_request("ask", name));
      ASSERT_TRUE(batch.bool_or("ok", false)) << batch.dump();
      stream.push_back(canonical(batch));
      const json::Array& candidates = batch.at("candidates").as_array();
      if (candidates.empty()) break;
      for (const json::Value& candidate : candidates) tell(candidate);
    }
    stream.push_back(
        canonical(call(dispatch, session_request("status", name))));
  }
  expect_streams_equal(streams[0], streams[1]);

  const RouterStats& stats = fleet.router->stats();
  EXPECT_EQ(stats.grows, 1u);
  EXPECT_EQ(stats.migrated_sessions, 1u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.rehomes, 1u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.synthesized, 0u);
  EXPECT_FALSE(fleet.router->shard_up("s2"));
  EXPECT_EQ(control.router->stats().failovers, 0u);
}

}  // namespace
}  // namespace pwu::router
