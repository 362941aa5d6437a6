// Network-resilience layer (DESIGN.md §15) — checksummed wire framing,
// idempotency-key replay, fencing epochs, the seeded fault injector, and
// the ShardClient recovery paths that ride on them. Everything here is
// deterministic and in-process (plus one forked /bin/sh for the
// pipe-buffer regression); the multi-process schedules live in
// test_netchaos.cpp (`ctest -L netchaos`).

#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "router/shard_client.hpp"
#include "service/session_manager.hpp"
#include "service/transport.hpp"
#include "sim/faulty_transport.hpp"
#include "util/json.hpp"

namespace pwu::service {
namespace {

namespace json = util::json;

// ---- frame helpers ----------------------------------------------------------

TEST(FrameWire, HeaderRoundTrip) {
  const std::string payload = R"({"op":"status","session":"s1"})";
  const std::string header_line = frame_header(payload);
  EXPECT_EQ(header_line.substr(0, kFrameMagic.size()), kFrameMagic);

  FrameHeader header;
  ASSERT_TRUE(parse_frame_header(header_line, header));
  EXPECT_EQ(header.len, payload.size());
  EXPECT_TRUE(frame_payload_matches(header, payload));

  // Any single-byte change is caught by the CRC...
  std::string flipped = payload;
  flipped[5] ^= 0x01;
  EXPECT_FALSE(frame_payload_matches(header, flipped));
  // ...and a truncation by the length check.
  EXPECT_FALSE(
      frame_payload_matches(header, payload.substr(0, payload.size() / 2)));
}

TEST(FrameWire, ParseRejectsMalformedHeaders) {
  FrameHeader header;
  EXPECT_FALSE(parse_frame_header("", header));
  EXPECT_FALSE(parse_frame_header("pwu1", header));
  EXPECT_FALSE(parse_frame_header("pwu1 ", header));
  EXPECT_FALSE(parse_frame_header("pwu1 12", header));
  EXPECT_FALSE(parse_frame_header("pwu1 x deadbeef", header));
  EXPECT_FALSE(parse_frame_header("pwu1 12 nothexxx", header));
  EXPECT_FALSE(parse_frame_header("pwu2 12 deadbeef", header));
  EXPECT_FALSE(parse_frame_header(R"({"op":"list"})", header));
  // A real header is accepted even with one corrupted *digit* elsewhere
  // rejected — the parse is strict about the shape.
  EXPECT_TRUE(parse_frame_header(frame_header("x"), header));
}

TEST(FrameWire, EncodeIsHeaderThenPayload) {
  const std::string payload = R"({"ok":true})";
  const std::string wire = frame_encode(payload);
  std::istringstream lines(wire);
  std::string first, second, extra;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_FALSE(std::getline(lines, extra));
  FrameHeader header;
  ASSERT_TRUE(parse_frame_header(first, header));
  EXPECT_EQ(second, payload);
  EXPECT_TRUE(frame_payload_matches(header, second));
}

// ---- serve loop: negotiation, verification, resync --------------------------

std::vector<json::Value> parse_framed_stream(const std::string& text) {
  std::istringstream lines(text);
  std::vector<json::Value> responses;
  std::string line;
  while (std::getline(lines, line)) {
    FrameHeader header;
    if (parse_frame_header(line, header)) {
      std::string payload;
      EXPECT_TRUE(std::getline(lines, payload)) << "torn trailing frame";
      EXPECT_TRUE(frame_payload_matches(header, payload)) << payload;
      responses.push_back(json::parse(payload));
    } else {
      responses.push_back(json::parse(line));
    }
  }
  return responses;
}

TEST(FramedServeLoop, HelloFlipsResponsesToFramed) {
  SessionManager manager;
  const std::string input = "{\"frame\":true,\"op\":\"hello\"}\n" +
                            frame_encode(R"({"op":"list"})") +
                            "{\"op\":\"shutdown\"}\n";
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(run_serve_loop(in, out, manager), 3u);

  // Every response from the hello on — the hello reply included — must be
  // a verifiable frame.
  std::istringstream lines(out.str());
  std::string line;
  std::size_t frames = 0;
  while (std::getline(lines, line)) {
    FrameHeader header;
    ASSERT_TRUE(parse_frame_header(line, header)) << line;
    std::string payload;
    ASSERT_TRUE(std::getline(lines, payload));
    EXPECT_TRUE(frame_payload_matches(header, payload));
    ++frames;
  }
  EXPECT_EQ(frames, 3u);

  const auto responses = parse_framed_stream(out.str());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].string_or("proto", ""), "pwu1");
  EXPECT_TRUE(responses[0].bool_or("frame", false));
  EXPECT_EQ(responses[0].number_or("fence_epoch", -1.0), 0.0);
  EXPECT_TRUE(responses[1].bool_or("ok", false));
  EXPECT_TRUE(responses[2].bool_or("shutdown", false));
}

TEST(FramedServeLoop, CorruptFrameReportsBadFrameAndResyncs) {
  SessionManager manager;
  std::string corrupt = frame_encode(R"({"op":"list"})");
  corrupt[corrupt.find("list")] = 'L';  // payload byte no longer matches CRC
  const std::string input = corrupt + frame_encode(R"({"op":"list"})") +
                            "{\"op\":\"shutdown\"}\n";
  std::istringstream in(input);
  std::ostringstream out;
  run_serve_loop(in, out, manager);

  const auto responses = parse_framed_stream(out.str());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].bool_or("ok", true));
  EXPECT_TRUE(responses[0].bool_or("bad_frame", false));
  // The loop resynced at the next header: the follow-up frame is served
  // normally, not mis-parsed as part of the damaged one.
  EXPECT_TRUE(responses[1].bool_or("ok", false));
  EXPECT_TRUE(responses[2].bool_or("shutdown", false));
}

TEST(FramedServeLoop, LegacyUnframedLinesAlwaysAccepted) {
  SessionManager manager;
  // Framed and unframed requests interleave freely; without a hello the
  // responses stay unframed (a legacy client never sees a pwu1 line).
  const std::string input = frame_encode(R"({"op":"list"})") +
                            "{\"op\":\"list\"}\n"
                            "{\"op\":\"shutdown\"}\n";
  std::istringstream in(input);
  std::ostringstream out;
  run_serve_loop(in, out, manager);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<json::Value> responses;
  while (std::getline(lines, line)) {
    FrameHeader header;
    EXPECT_FALSE(parse_frame_header(line, header)) << "unexpected frame";
    responses.push_back(json::parse(line));
  }
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].bool_or("ok", false));
  EXPECT_TRUE(responses[1].bool_or("ok", false));
}

// ---- idempotency keys --------------------------------------------------------

json::Value request_obj(
    std::initializer_list<std::pair<const std::string, json::Value>> fields) {
  return json::Value(json::Object(fields));
}

json::Value small_create(const std::string& name) {
  return json::parse(
      R"({"op":"create","session":")" + name +
      R"(","workload":"gesummv","n_init":4,"n_batch":2,"n_max":12,)"
      R"("trees":6,"pool_size":100,"seed":31})");
}

TEST(Idempotency, DuplicateTellReplaysTheOriginalReply) {
  SessionManager manager;
  ASSERT_TRUE(handle_request(manager, small_create("s")).bool_or("ok", false));
  const json::Value asked = handle_request(
      manager, request_obj({{"op", json::Value("ask")},
                            {"session", json::Value("s")}}));
  ASSERT_TRUE(asked.bool_or("ok", false));
  const json::Array& candidates = asked.at("candidates").as_array();
  ASSERT_FALSE(candidates.empty());

  json::Object tell{{"op", json::Value("tell")},
                    {"session", json::Value("s")},
                    {"levels", candidates[0].at("levels")},
                    {"time", json::Value(0.25)},
                    {"idem", json::Value("key-1")},
                    {"rid", json::Value("r1")}};
  json::Value first = handle_request(manager, json::Value(tell));
  ASSERT_TRUE(first.bool_or("ok", false)) << first.dump();
  EXPECT_EQ(first.string_or("rid", ""), "r1");
  const double labeled = manager.status("s").labeled;

  // Same key again (a client resend after a lost reply): the original
  // reply comes back verbatim — except the rid, which must be the
  // *retry's* — and the tell is not applied twice.
  tell["rid"] = json::Value("r2");
  json::Value replay = handle_request(manager, json::Value(tell));
  EXPECT_EQ(replay.string_or("rid", ""), "r2");
  replay.as_object().erase("rid");
  first.as_object().erase("rid");
  EXPECT_EQ(replay.dump(), first.dump());
  EXPECT_EQ(manager.status("s").labeled, labeled);
  EXPECT_EQ(manager.health().idem_replays, 1u);
}

TEST(Idempotency, WindowIsBoundedAndErasedOnClose) {
  SessionManager manager;
  manager.set_idempotency_window(2);
  manager.remember_reply("s", "k1", R"({"ok":true,"n":1})");
  manager.remember_reply("s", "k2", R"({"ok":true,"n":2})");
  manager.remember_reply("s", "k3", R"({"ok":true,"n":3})");
  // Oldest key evicted at capacity 2; the survivors replay.
  EXPECT_FALSE(manager.idempotent_reply("s", "k1").has_value());
  EXPECT_TRUE(manager.idempotent_reply("s", "k2").has_value());
  EXPECT_EQ(manager.idempotent_reply("s", "k3").value_or(""),
            R"({"ok":true,"n":3})");

  // Closing the session drops its window — a later session reusing the
  // name must not see stale replies.
  ASSERT_TRUE(handle_request(manager, small_create("s")).bool_or("ok", false));
  handle_request(manager, request_obj({{"op", json::Value("close")},
                                       {"session", json::Value("s")}}));
  EXPECT_FALSE(manager.idempotent_reply("s", "k2").has_value());
}

TEST(Idempotency, NewSessionUnderAClosedNameStartsWithAnEmptyWindow) {
  SessionManager manager;
  const auto keyed = [](json::Value request, const char* key) {
    request.as_object().emplace("idem", json::Value(key));
    return request;
  };
  const json::Value close =
      keyed(request_obj({{"op", json::Value("close")},
                         {"session", json::Value("s")}}),
            "k2");
  ASSERT_TRUE(handle_request(manager, keyed(small_create("s"), "k1"))
                  .bool_or("ok", false));
  const json::Value closed = handle_request(manager, close);
  ASSERT_EQ(closed.string_or("closed", ""), "s") << closed.dump();

  // A retried close (its reply was lost) still replays the close reply.
  EXPECT_EQ(handle_request(manager, close).dump(), closed.dump());

  // A new session under the name — e.g. a restarted client whose key
  // counter starts over — must not inherit that reply: an ask reusing the
  // close's key executes and hands out the cold-start batch.
  ASSERT_TRUE(handle_request(manager, keyed(small_create("s"), "k3"))
                  .bool_or("ok", false));
  const json::Value asked = handle_request(
      manager, keyed(request_obj({{"op", json::Value("ask")},
                                  {"session", json::Value("s")}}),
                     "k2"));
  ASSERT_TRUE(asked.bool_or("ok", false)) << asked.dump();
  EXPECT_FALSE(asked.has("closed")) << asked.dump();
  EXPECT_EQ(asked.at("candidates").as_array().size(), 4u);
  EXPECT_EQ(manager.status("s").pending, 4u);
}

TEST(Idempotency, ZeroWindowDisablesDedup) {
  SessionManager manager;
  manager.set_idempotency_window(0);
  manager.remember_reply("s", "k1", R"({"ok":true})");
  EXPECT_FALSE(manager.idempotent_reply("s", "k1").has_value());
}

// ---- fencing epochs ----------------------------------------------------------

TEST(Fencing, StaleEpochWriteIsRejectedStructured) {
  SessionManager manager;
  json::Value create = small_create("s");
  create.as_object().emplace("epoch", json::Value(5));
  ASSERT_TRUE(handle_request(manager, create).bool_or("ok", false));
  EXPECT_EQ(manager.fence_epoch(), 5u);

  // A write from an epoch the ring has moved past: structured rejection,
  // nothing applied.
  const json::Value stale = handle_request(
      manager, request_obj({{"op", json::Value("checkpoint")},
                            {"session", json::Value("s")},
                            {"path", json::Value("/tmp/pwu_fence_t.ckpt")},
                            {"epoch", json::Value(4)}}));
  EXPECT_FALSE(stale.bool_or("ok", true));
  EXPECT_TRUE(stale.bool_or("fenced", false));
  EXPECT_EQ(stale.number_or("epoch", -1.0), 5.0);
  EXPECT_NE(stale.string_or("error", "").find("stale epoch 4 < fence 5"),
            std::string::npos);

  // Reads are never fenced — a stale observer may still look.
  const json::Value status = handle_request(
      manager, request_obj({{"op", json::Value("status")},
                            {"session", json::Value("s")},
                            {"epoch", json::Value(4)}}));
  EXPECT_TRUE(status.bool_or("ok", false)) << status.dump();

  // The explicit fence op raises monotonically (and never lowers).
  const json::Value fence = handle_request(
      manager, request_obj({{"op", json::Value("fence")},
                            {"epoch", json::Value(9)}}));
  EXPECT_TRUE(fence.bool_or("ok", false));
  EXPECT_EQ(fence.number_or("epoch", -1.0), 9.0);
  handle_request(manager, request_obj({{"op", json::Value("fence")},
                                       {"epoch", json::Value(3)}}));
  EXPECT_EQ(manager.fence_epoch(), 9u);

  const json::Value old_write = handle_request(
      manager, request_obj({{"op", json::Value("ask")},
                            {"session", json::Value("s")},
                            {"epoch", json::Value(8)}}));
  EXPECT_TRUE(old_write.bool_or("fenced", false));
}

TEST(Fencing, RidIsEchoedEvenOnRejections) {
  SessionManager manager;
  handle_request(manager, request_obj({{"op", json::Value("fence")},
                                       {"epoch", json::Value(2)}}));
  const json::Value fenced = handle_request(
      manager, request_obj({{"op", json::Value("tell")},
                            {"session", json::Value("nope")},
                            {"epoch", json::Value(1)},
                            {"rid", json::Value("abc#9")}}));
  EXPECT_TRUE(fenced.bool_or("fenced", false));
  EXPECT_EQ(fenced.string_or("rid", ""), "abc#9");
}

// ---- FaultyTransport ---------------------------------------------------------

/// Loopback peer: every sent line is echoed back as the reply.
class EchoTransport : public Transport {
 public:
  void send(const std::string& line) override {
    sent.push_back(line);
    replies.push_back(line);
  }
  std::string recv() override {
    if (replies.empty()) {
      throw TransportError("echo transport: no reply outstanding");
    }
    std::string line = std::move(replies.front());
    replies.pop_front();
    return line;
  }
  void ensure_running() override {}
  bool alive() const override { return true; }

  std::vector<std::string> sent;
  std::deque<std::string> replies;
};

using sim::FaultSchedule;
using sim::FaultyTransport;
using sim::WireFate;

std::unique_ptr<FaultyTransport> echo_faulty(FaultSchedule schedule = {}) {
  return std::make_unique<FaultyTransport>(
      std::make_unique<EchoTransport>(), schedule);
}

TEST(FaultyTransport, RejectsMalformedSchedules) {
  FaultSchedule negative;
  negative.drop = -0.1;
  EXPECT_THROW(echo_faulty(negative), std::invalid_argument);
  FaultSchedule overfull;
  overfull.drop = 0.6;
  overfull.corrupt_payload = 0.6;
  EXPECT_THROW(echo_faulty(overfull), std::invalid_argument);
}

TEST(FaultyTransport, ScriptedFatesApplyExactly) {
  auto wire = echo_faulty();
  wire->script({WireFate::Deliver, WireFate::Duplicate, WireFate::Drop});

  wire->send("a");
  EXPECT_EQ(wire->recv(), "a");

  wire->send("b");
  EXPECT_EQ(wire->recv(), "b");
  EXPECT_EQ(wire->recv(), "b");  // the duplicate, back to back

  wire->send("c");
  EXPECT_THROW(wire->recv(), FrameError);  // dropped

  // Script exhausted, zero probabilities: back to clean delivery.
  wire->send("d");
  EXPECT_EQ(wire->recv(), "d");

  EXPECT_EQ(wire->stats().delivered, 2u);
  EXPECT_EQ(wire->stats().duplicated, 1u);
  EXPECT_EQ(wire->stats().dropped, 1u);
}

TEST(FaultyTransport, ReorderSwapsWithTheNextUnit) {
  auto wire = echo_faulty();
  wire->script({WireFate::Reorder});
  wire->send("a");
  wire->send("b");
  EXPECT_EQ(wire->recv(), "b");
  EXPECT_EQ(wire->recv(), "a");
  EXPECT_EQ(wire->stats().reordered, 1u);
}

TEST(FaultyTransport, ReorderWithNothingOutstandingDemotesToDeliver) {
  // A schedule-driven run must never stall waiting for a reply nobody
  // requested: with no later unit to swap with, Reorder delivers.
  auto wire = echo_faulty();
  wire->script({WireFate::Reorder});
  wire->send("only");
  EXPECT_EQ(wire->recv(), "only");
  EXPECT_EQ(wire->stats().reordered, 0u);
  EXPECT_EQ(wire->stats().delivered, 1u);
}

TEST(FaultyTransport, DelayReleasesOnTheVirtualClock) {
  auto wire = echo_faulty();
  wire->script({WireFate::Delay, WireFate::Deliver, WireFate::Deliver});
  wire->send("a");
  wire->send("b");
  wire->send("c");
  EXPECT_EQ(wire->recv(), "b");  // "a" held while later units pass
  EXPECT_EQ(wire->recv(), "a");
  EXPECT_EQ(wire->recv(), "c");
  EXPECT_EQ(wire->stats().delayed, 1u);
}

TEST(FaultyTransport, CorruptionChangesExactlyOneByte) {
  auto wire = echo_faulty();
  wire->script({WireFate::CorruptPayload, WireFate::Truncate});
  const std::string line = R"({"ok":true,"value":123456789})";
  wire->send(line);
  const std::string corrupted = wire->recv();
  ASSERT_EQ(corrupted.size(), line.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (corrupted[i] != line[i]) ++differing;
  }
  EXPECT_EQ(differing, 1u);

  wire->send(line);
  EXPECT_EQ(wire->recv().size(), line.size() / 2);
  EXPECT_EQ(wire->stats().corrupted, 1u);
  EXPECT_EQ(wire->stats().truncated, 1u);
}

TEST(FaultyTransport, PartitionRejectsWithoutTouchingThePeer) {
  auto wire = echo_faulty();
  auto* echo = static_cast<EchoTransport*>(&wire->inner());
  wire->partition_for(2);
  EXPECT_TRUE(wire->partitioned());
  EXPECT_FALSE(wire->alive());
  EXPECT_THROW(wire->send("x"), TransportError);
  EXPECT_THROW(wire->recv(), TransportError);
  // The peer saw nothing — the process behind the partition is intact.
  EXPECT_TRUE(echo->sent.empty());

  // Window consumed: the wire heals on its own.
  EXPECT_FALSE(wire->partitioned());
  EXPECT_TRUE(wire->alive());
  wire->send("x");
  EXPECT_EQ(wire->recv(), "x");

  wire->partition_for(100);
  wire->heal();
  EXPECT_TRUE(wire->alive());
}

TEST(FaultyTransport, FramedUnitsTravelAndFailTogether) {
  auto wire = echo_faulty();
  wire->script({WireFate::Reorder});
  const std::string p1 = R"({"n":1})";
  const std::string p2 = R"({"n":2})";
  // Two framed messages: header+payload must swap as whole units, never
  // tear into interleaved lines.
  wire->send(frame_header(p1));
  wire->send(p1);
  wire->send(frame_header(p2));
  wire->send(p2);
  EXPECT_EQ(wire->recv(), frame_header(p2));
  EXPECT_EQ(wire->recv(), p2);
  EXPECT_EQ(wire->recv(), frame_header(p1));
  EXPECT_EQ(wire->recv(), p1);
}

TEST(FaultyTransport, SameSeedSameFaultSequence) {
  FaultSchedule schedule;
  schedule.drop = 0.15;
  schedule.duplicate = 0.15;
  schedule.corrupt_payload = 0.2;
  schedule.seed = 97;

  const auto run = [&]() {
    auto wire = echo_faulty(schedule);
    std::vector<std::string> outcomes;
    for (int i = 0; i < 60; ++i) {
      const std::string line = "msg-" + std::to_string(i);
      wire->send(line);
      try {
        outcomes.push_back(wire->recv());
      } catch (const FrameError&) {
        outcomes.push_back("<dropped>");
      }
    }
    // Drain duplicates left in the queue.
    outcomes.push_back("tail:" + std::to_string(wire->stats().duplicated));
    return outcomes;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

// ---- ShardClient under injected faults ---------------------------------------

/// Minimal in-process shard: answers every request line with
/// {"ok":true,"rid":...,"k":<k field>} so rid matching and resend logic
/// can be exercised without a real worker.
class MiniShard : public Transport {
 public:
  void send(const std::string& line) override {
    received.push_back(line);
    const json::Value request = json::parse(line);
    json::Object reply;
    reply.emplace("ok", json::Value(true));
    reply.emplace("rid", request.at("rid"));
    reply.emplace("k", request.at("k"));
    if (request.has("idem")) reply.emplace("idem", request.at("idem"));
    replies.push_back(json::Value(std::move(reply)).dump());
  }
  std::string recv() override {
    if (replies.empty()) {
      throw TransportError("mini shard: no reply outstanding");
    }
    std::string line = std::move(replies.front());
    replies.pop_front();
    return line;
  }
  void ensure_running() override {}
  bool alive() const override { return true; }

  std::vector<std::string> received;
  std::deque<std::string> replies;
};

struct PipelineRig {
  FaultyTransport* wire = nullptr;
  MiniShard* shard = nullptr;
  std::unique_ptr<router::ShardClient> client;
};

PipelineRig make_rig() {
  PipelineRig rig;
  auto shard = std::make_unique<MiniShard>();
  rig.shard = shard.get();
  auto wire =
      std::make_unique<FaultyTransport>(std::move(shard), FaultSchedule{});
  rig.wire = wire.get();
  router::ShardClientOptions options;
  options.retries = 3;
  options.backoff_ms = 1;
  rig.client = std::make_unique<router::ShardClient>("shard-t",
                                                     std::move(wire), options);
  return rig;
}

std::vector<json::Value> window(std::size_t n, const std::string& op) {
  std::vector<json::Value> requests;
  for (std::size_t i = 0; i < n; ++i) {
    json::Object obj;
    obj.emplace("op", json::Value(op));
    obj.emplace("session", json::Value("w" + std::to_string(i)));
    obj.emplace("k", json::Value(i));
    requests.push_back(json::Value(std::move(obj)));
  }
  return requests;
}

void expect_in_order(const router::ShardClient::PipelineResult& result,
                     std::size_t n) {
  EXPECT_FALSE(result.died) << result.error;
  ASSERT_EQ(result.responses.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(result.responses[i].bool_or("ok", false));
    EXPECT_EQ(result.responses[i].number_or("k", -1.0),
              static_cast<double>(i))
        << "slot " << i;
    // Wire-level stamps are stripped before the caller sees the response.
    EXPECT_FALSE(result.responses[i].has("rid"));
  }
}

TEST(ShardClientPipeline, DuplicatedRepliesWithinTheWindowAreDiscarded) {
  PipelineRig rig = make_rig();
  rig.wire->script({WireFate::Duplicate, WireFate::Deliver,
                    WireFate::Duplicate, WireFate::Deliver});
  expect_in_order(rig.client->call_pipelined(window(4, "status")), 4);
  EXPECT_EQ(rig.wire->stats().duplicated, 2u);
  EXPECT_EQ(rig.client->corrupt_replies(), 0u);  // never looked like loss
}

TEST(ShardClientPipeline, ReorderedRepliesRematchByRid) {
  PipelineRig rig = make_rig();
  // Swap (0,1) and (2,3): every slot must still land on its own request.
  rig.wire->script({WireFate::Reorder, WireFate::Reorder});
  expect_in_order(rig.client->call_pipelined(window(4, "status")), 4);
  EXPECT_EQ(rig.wire->stats().reordered, 2u);
}

TEST(ShardClientPipeline, DuplicatedAndReorderedTogether) {
  PipelineRig rig = make_rig();
  rig.wire->script({WireFate::Duplicate, WireFate::Reorder,
                    WireFate::Duplicate});
  expect_in_order(rig.client->call_pipelined(window(5, "status")), 5);
}

TEST(ShardClientPipeline, DroppedReplyIsResentWithTheSameStamps) {
  PipelineRig rig = make_rig();
  rig.wire->script({WireFate::Drop});
  const auto requests = window(3, "tell");  // mutating: stamp() adds idem
  expect_in_order(rig.client->call_pipelined(requests), 3);
  EXPECT_EQ(rig.client->corrupt_replies(), 1u);

  // The resend re-used the original wire lines bit for bit — same rid,
  // same idempotency key — so the server side dedups instead of
  // double-applying.
  ASSERT_EQ(rig.shard->received.size(), 6u);  // 3 sends + 3 resends
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.shard->received[i], rig.shard->received[i + 3]);
    const json::Value request = json::parse(rig.shard->received[i]);
    EXPECT_FALSE(request.string_or("idem", "").empty());
  }
}

TEST(ShardClient, SingleCallSurvivesADroppedReply) {
  PipelineRig rig = make_rig();
  rig.wire->script({WireFate::Drop});
  json::Object obj;
  obj.emplace("op", json::Value("status"));
  obj.emplace("session", json::Value("s"));
  obj.emplace("k", json::Value(std::size_t{7}));
  const json::Value response = rig.client->call(json::Value(std::move(obj)));
  EXPECT_TRUE(response.bool_or("ok", false));
  EXPECT_EQ(response.number_or("k", -1.0), 7.0);
  EXPECT_EQ(rig.client->corrupt_replies(), 1u);
  EXPECT_TRUE(rig.client->alive());
}

TEST(ShardClient, PersistentCorruptionBecomesShardDeath) {
  PipelineRig rig = make_rig();
  rig.wire->script({WireFate::Drop, WireFate::Drop, WireFate::Drop,
                    WireFate::Drop, WireFate::Drop});
  json::Object obj;
  obj.emplace("op", json::Value("status"));
  obj.emplace("session", json::Value("s"));
  obj.emplace("k", json::Value(std::size_t{0}));
  EXPECT_THROW(rig.client->call(json::Value(std::move(obj))), TransportError);
  EXPECT_FALSE(rig.client->alive());
}

// ---- FramedTransport ---------------------------------------------------------

/// Inner transport whose replies the test queues by hand.
class ScriptedTransport : public Transport {
 public:
  void send(const std::string& line) override { sent.push_back(line); }
  std::string recv() override {
    if (replies.empty()) {
      throw TransportError("scripted transport: out of replies");
    }
    std::string line = std::move(replies.front());
    replies.pop_front();
    return line;
  }
  void ensure_running() override {}
  bool alive() const override { return true; }

  void queue_frame(const std::string& payload) {
    replies.push_back(frame_header(payload));
    replies.push_back(payload);
  }

  std::vector<std::string> sent;
  std::deque<std::string> replies;
};

TEST(FramedTransport, NegotiatesAndSpeaksFrames) {
  auto scripted = std::make_unique<ScriptedTransport>();
  auto* inner = scripted.get();
  inner->queue_frame(R"({"fence_epoch":0,"frame":true,"ok":true})");
  inner->queue_frame(R"({"ok":true,"sessions":[]})");

  FramedTransport framed(std::move(scripted));
  framed.send(R"({"op":"list"})");
  // Wire order: the unframed hello, then header+payload of the request.
  ASSERT_EQ(inner->sent.size(), 3u);
  EXPECT_EQ(inner->sent[0], "{\"frame\":true,\"op\":\"hello\"}");
  FrameHeader header;
  EXPECT_TRUE(parse_frame_header(inner->sent[1], header));
  EXPECT_EQ(inner->sent[2], R"({"op":"list"})");

  EXPECT_EQ(framed.recv(), R"({"ok":true,"sessions":[]})");
  EXPECT_EQ(framed.corrupt_replies(), 0u);
}

TEST(FramedTransport, LegacyPeerFallsBackToPassthrough) {
  auto scripted = std::make_unique<ScriptedTransport>();
  auto* inner = scripted.get();
  // A legacy server answers the hello with a plain unknown-op error.
  inner->replies.push_back(R"({"error":"unknown op 'hello'","ok":false})");
  inner->replies.push_back(R"({"ok":true})");

  FramedTransport framed(std::move(scripted));
  framed.send(R"({"op":"list"})");
  ASSERT_EQ(inner->sent.size(), 2u);
  EXPECT_EQ(inner->sent[1], R"({"op":"list"})");  // no header line
  EXPECT_EQ(framed.recv(), R"({"ok":true})");
}

TEST(FramedTransport, ChecksumMismatchThrowsFrameError) {
  auto scripted = std::make_unique<ScriptedTransport>();
  auto* inner = scripted.get();
  inner->queue_frame(R"({"fence_epoch":0,"frame":true,"ok":true})");
  const std::string good = R"({"ok":true,"value":1})";
  inner->replies.push_back(frame_header(good));
  inner->replies.push_back(R"({"ok":true,"value":2})");  // wrong payload
  inner->queue_frame(good);

  FramedTransport framed(std::move(scripted));
  framed.send(R"({"op":"x"})");
  EXPECT_THROW(framed.recv(), FrameError);
  EXPECT_EQ(framed.corrupt_replies(), 1u);
  // The stream is at a frame boundary: the next frame reads clean.
  EXPECT_EQ(framed.recv(), good);
}

TEST(FramedTransport, CorruptHeaderResyncsToTheNextFrame) {
  auto scripted = std::make_unique<ScriptedTransport>();
  auto* inner = scripted.get();
  inner->queue_frame(R"({"fence_epoch":0,"frame":true,"ok":true})");
  // A corrupted header followed by its (now orphaned) payload — both must
  // be consumed before the next good frame.
  inner->replies.push_back("pwu1 garbage notahex0");
  inner->replies.push_back(R"({"orphaned":"payload"})");
  const std::string good = R"({"ok":true})";
  inner->queue_frame(good);

  FramedTransport framed(std::move(scripted));
  framed.send(R"({"op":"x"})");
  EXPECT_THROW(framed.recv(), FrameError);
  EXPECT_EQ(framed.resyncs(), 1u);
  EXPECT_EQ(framed.recv(), good);
}

TEST(FramedTransport, ResyncPushesBackAStandaloneGarbageLine) {
  auto scripted = std::make_unique<ScriptedTransport>();
  auto* inner = scripted.get();
  inner->queue_frame(R"({"fence_epoch":0,"frame":true,"ok":true})");
  // Garbage line standing alone, directly followed by a good frame: the
  // resync must not eat the good frame's header.
  inner->replies.push_back("%%% line noise %%%");
  const std::string good = R"({"ok":true,"value":3})";
  inner->queue_frame(good);

  FramedTransport framed(std::move(scripted));
  framed.send(R"({"op":"x"})");
  EXPECT_THROW(framed.recv(), FrameError);
  EXPECT_EQ(framed.recv(), good);
}

// ---- PipeTransport short reads -----------------------------------------------

TEST(PipeTransport, LongReplySplitAcrossPipeBufferBoundaries) {
  // The reply is ~120 KiB on one line — far past the 64 KiB pipe capacity,
  // so the kernel delivers it in several short reads and recv() must loop
  // to the newline instead of surfacing a truncated prefix.
  const std::string command =
      "sh -c 'read -r line; "
      "printf \"{\\\"ok\\\":true,\\\"pad\\\":\\\"\"; "
      "head -c 120000 /dev/zero | tr \"\\\\0\" x; "
      "printf \"\\\"}\\n\"'";
  PipeTransport pipe(command, 30.0);
  const std::string reply = pipe.request(R"({"op":"status"})");
  ASSERT_GT(reply.size(), 120000u);
  const json::Value parsed = json::parse(reply);
  EXPECT_TRUE(parsed.bool_or("ok", false));
  EXPECT_EQ(parsed.at("pad").as_string().size(), 120000u);
}

}  // namespace
}  // namespace pwu::service
