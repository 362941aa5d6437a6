// Front-end of the sharded serving tier: speaks the JSON-lines protocol
// to clients and fans requests out to N backend pwu_serve workers over
// the same protocol.
//
// Placement  — session names map to shards through a deterministic
//              consistent-hash ring (HashRing); membership shrinks on
//              shard death and grows through add_shard (the "grow" op),
//              which migrates exactly the sessions the new shard claims
//              — checkpoint image + replay tail over the transport —
//              before flipping ring ownership atomically. Sessions the
//              new shard does not claim never move.
// Replication— every worker auto-checkpoints each session to its own
//              directory after every tell (the PR-4 atomic-write
//              substrate); the router additionally writes a baseline
//              checkpoint right after each create/resume/re-home so even
//              a session that never told a label can fail over.
// Failover   — a connection-level failure (dead or wedged worker)
//              declares the shard down: it leaves the ring and every
//              session homed there is resumed — bit-identically, from its
//              newest good checkpoint — onto its new ring owner. The
//              request that *detected* the death is then resolved
//              exactly-once:
//                * a success-tell whose label the dying worker already
//                  applied and checkpointed (the worker checkpoints
//                  before the inline refit, so "killed mid-fit" lands
//                  here) is answered synthetically from the resumed
//                  status — replaying it would double-apply the label;
//                * everything else (asks, not-yet-applied tells, status,
//                  ...) is replayed verbatim on the new home.
//              Sessions that cannot be re-homed yet (no survivor, target
//              overloaded) are parked: their requests answer
//              {"ok":false,"redirected":true,"retry_after_ms":N} until a
//              later touch re-homes them — clients back off and retry,
//              never observing a lost session.
// Warm standby— with options.standby, each session's ring successor hosts
//              a live *shadow*: the router streams every acked mutating
//              op (wrapped in the `replicate` protocol op, see
//              router/replication.hpp) and the standby re-executes it,
//              so shadow state tracks the client-visible ack horizon
//              exactly. On primary death failover *promotes* the shadow
//              — one `promote` round-trip, no checkpoint load — after
//              verifying the flushed ack horizon against the promoted
//              status. A stale shadow (digest/labeled mismatch, missed
//              records, dead standby) is never promoted; those sessions
//              take the cold checkpoint path above unchanged.
//
// The router is deliberately single-threaded and wall-clock-free in its
// decision logic (health probing is request-count based), so multi-
// process chaos runs are deterministic. Failure-report tells
// (status != "ok") are replayed at-least-once on failover: they never
// enter the training set, but the per-candidate attempt counter may count
// one extra attempt for the crashed instant.

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "router/hash_ring.hpp"
#include "router/replication.hpp"
#include "router/shard_client.hpp"
#include "service/transport.hpp"
#include "util/json.hpp"

namespace pwu::router {

struct RouterOptions {
  /// Virtual nodes per shard on the placement ring.
  std::size_t vnodes = 128;
  /// Back-off hint attached to redirected responses.
  std::int64_t retry_after_ms = 100;
  /// When false, an in-flight request interrupted by shard death answers
  /// redirected instead of being replayed on the new home (already-applied
  /// tells are still answered synthetically — a client retry of those
  /// would double-apply). Chaos tests use this to exercise the client's
  /// redirected handling.
  bool replay_in_flight = true;
  /// Probe every up shard's health after this many handled requests
  /// (deterministic cadence; 0 = probe only on demand via the health op).
  std::size_t probe_every = 0;
  /// Acked-but-not-yet-durable asks above this count force an explicit
  /// checkpoint instead of growing the replay log without bound.
  std::size_t max_replay_log = 64;
  /// Warm-standby replication: stream acked ops to each session's ring
  /// successor and promote its live shadow on primary death.
  bool standby = false;
  /// Flush the replication outbox once this many acked ops are queued
  /// (lower = smaller promotion-time flush, more replication round-trips).
  std::size_t replication_lag_max = 4;
  /// Speak checksummed `pwu1` framing to the shards: every ShardSpec
  /// transport (initial fleet and grown shards alike) is wrapped in a
  /// service::FramedTransport, so corruption on the router<->worker hop is
  /// detected and retried instead of mis-parsed.
  bool frame = false;
};

/// One backend worker: a transport speaking the JSON-lines protocol and
/// the directory its auto-checkpoints land in (which failover reads).
struct ShardSpec {
  std::string name;
  std::unique_ptr<service::Transport> transport;
  std::string checkpoint_dir;
};

struct RouterStats {
  std::uint64_t requests = 0;     // client requests handled
  std::uint64_t forwards = 0;     // requests forwarded to shards
  std::uint64_t failovers = 0;    // shards declared dead
  std::uint64_t rehomes = 0;      // sessions resumed onto a new home
  std::uint64_t replays = 0;      // in-flight requests replayed after failover
  std::uint64_t synthesized = 0;  // applied-tell responses synthesized
  std::uint64_t redirects = 0;    // redirected responses sent to clients
  std::uint64_t promotions = 0;   // shadows promoted on primary death
  std::uint64_t standby_fallbacks = 0;  // promotions that fell back cold
  std::uint64_t replicated_ops = 0;     // op records acked by standbys
  std::uint64_t migrated_sessions = 0;  // sessions moved by ring growth
  std::uint64_t grows = 0;              // shards added to the ring
  std::uint64_t fences_delivered = 0;   // fence epochs pushed to stale shards
};

class Router {
 public:
  Router(std::vector<ShardSpec> shards, RouterOptions options = {},
         ShardClientOptions client_options = {});

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Dispatches one request. Never throws for request-level errors — they
  /// come back as {"ok":false,...} responses, exactly like
  /// service::handle_request.
  util::json::Value handle(const util::json::Value& request);

  /// Dispatches a window of requests, pipelining per shard: consecutive
  /// ask/tell/status runs targeting one shard cost one send/drain round
  /// while other shards compute concurrently. Per-session request order
  /// is preserved; responses come back in request order.
  std::vector<util::json::Value> handle_batch(
      const std::vector<util::json::Value>& requests);

  /// Grows the ring by one shard with live session migration: probes the
  /// new worker, transfers every session the grown ring would assign to
  /// it (chunked export -> import -> labeled-count verification -> durable
  /// checkpoint at the new home), then flips ring ownership atomically.
  /// The router is single-threaded, so in-flight requests are drained by
  /// construction — handle_batch flushes pipelined windows before any
  /// non-pipelinable op, and "grow" is not pipelinable. On any failure the
  /// growth aborts without touching ring membership: the half-added shard
  /// is declared down and sessions already copied to it fail over back
  /// onto the old ring owners from the checkpoints migration just wrote.
  /// Returns the protocol response ({"ok":true,"added":...,"migrated":N}
  /// or {"ok":false,...}).
  util::json::Value add_shard(ShardSpec spec);

  /// Wires the "grow" protocol op: the factory turns a shard name into a
  /// ShardSpec (spawning the worker process); add_shard does the rest.
  void set_grow_factory(
      std::function<ShardSpec(const std::string&)> factory) {
    grow_factory_ = std::move(factory);
  }

  // ---- introspection (tests, health) ----
  const HashRing& ring() const { return ring_; }
  const RouterStats& stats() const { return stats_; }
  std::size_t sessions_tracked() const { return records_.size(); }
  std::size_t parked_sessions() const;
  bool shard_up(const std::string& name) const;
  const StandbyTracker& standbys() const { return standbys_; }

 private:
  struct Shard {
    std::string name;
    std::string checkpoint_dir;
    std::unique_ptr<ShardClient> client;
    bool up = true;
    /// Sessions re-homed away from this shard after it died.
    std::size_t rehomed_away = 0;
  };

  /// What the router remembers per session — enough to route, to decide
  /// replay-vs-synthesize, and to enumerate a dead shard's tenants.
  struct SessionRecord {
    std::size_t home = 0;  // index into shards_
    /// Labels acknowledged to the client so far (from forwarded tell /
    /// create / resume responses).
    std::size_t labeled = 0;
    /// Home shard died and no survivor has resumed the session yet.
    bool parked = false;
    /// Status captured from the most recent re-home resume (what an
    /// in-flight tell is synthesized from).
    bool resumed_valid = false;
    std::size_t resumed_labeled = 0;
    std::size_t resumed_pending = 0;
    bool resumed_done = false;
    /// Acked ask requests since the session's last durable checkpoint.
    /// Asks mutate only in-memory worker state, so failover replays them
    /// after the resume — from the same state they first ran against,
    /// which regenerates bit-identical candidates (the set the client is
    /// still measuring). Cleared whenever a checkpoint lands; bounded by
    /// forcing a checkpoint past options.max_replay_log entries.
    std::vector<std::string> replay_log;
  };

  util::json::Value dispatch(const util::json::Value& request);
  util::json::Value handle_list();
  util::json::Value handle_health();
  util::json::Value handle_shutdown();

  /// Forward-with-failover loop for a session-scoped request (see the
  /// failover contract in the header comment).
  util::json::Value forward_session_request(const std::string& name,
                                            const util::json::Value& request);

  /// Resolves a request that was in flight when its shard died (failover
  /// already ran): synthesize the response if the lost request was a tell
  /// the dying worker provably applied and checkpointed, redirect when
  /// replay is disabled, replay on the new home otherwise.
  util::json::Value resolve_interrupted(const std::string& name,
                                        const util::json::Value& request);

  /// Updates the session table from a successful forwarded response and
  /// writes the post-create/post-resume baseline checkpoint.
  void bookkeep(const std::string& name, const std::string& op,
                std::size_t shard, const util::json::Value& request,
                const util::json::Value& response);

  /// Declares a shard dead: drops it from the ring and re-homes every
  /// session it hosted onto the sessions' new ring owners. Idempotent.
  void failover(std::size_t dead);

  /// Resumes one parked-or-dying session onto its current ring owner from
  /// its newest checkpoint (the cold path). Retires any shadow first —
  /// the target is usually the shard hosting it, and the resume would
  /// collide with the shadow's name. Returns true when the session is
  /// live again.
  bool rehome_session(const std::string& name, SessionRecord& record);

  // ---- warm-standby replication ----

  /// Starts replicating `name` onto shard `standby`: arms the tracker,
  /// queues the bootstrap records (resume from the primary's durable
  /// image over the shared checkpoint filesystem, a mirror checkpoint to
  /// the standby's own path, then the replay tail), and flushes
  /// immediately. The immediate flush is a soundness requirement, not an
  /// optimization: the primary's checkpoint file advances with every
  /// tell, so a lazily-applied bootstrap resume would load an image
  /// *newer* than the queued replay records assume and double-apply them.
  void arm_standby(const std::string& name, SessionRecord& record,
                   std::size_t standby);

  /// Queues one acked op record and flushes once the outbox reaches
  /// options.replication_lag_max.
  void replicate_op(const std::string& name, OpRecord record);

  /// Queues a checkpoint record targeting the standby's own path, so the
  /// shadow's durable horizon advances whenever the primary's does.
  /// Called before every replay-log clear that an explicit primary
  /// checkpoint triggers. No-op when the session has no healthy standby.
  void mirror_checkpoint(const std::string& name);

  /// Streams the pending outbox to the standby and verifies every ack.
  /// Returns true when the shadow is caught up to the ack horizon; false
  /// marks it stale (mismatch) or fails the standby over (death).
  bool flush_replication(const std::string& name);

  /// Warm failover: flushes, promotes the shadow in place, verifies the
  /// promoted labeled count against the ack horizon, and flips the
  /// session's home to the standby — keeping the replay log, whose asks
  /// live in the shadow's memory but may postdate its disk image exactly
  /// as they did the primary's. False = caller takes the cold path.
  bool promote_session(const std::string& name, SessionRecord& record);

  /// Closes `name`'s shadow on its host (best-effort) and drops tracking.
  void retire_standby(const std::string& name);

  /// Re-establishes the desired standby (ring successor) for every live
  /// session whose shadow is missing, stale, misplaced, or down.
  /// Idempotent; called after membership changes.
  void rearm_standbys();

  /// Moves one session to shard `to`: chunked export from its home,
  /// staged import + commit on `to`, labeled-count verification, durable
  /// checkpoint at the new home, then the ownership flip and a
  /// best-effort close of the old copy. The exported image is the live
  /// in-memory state (pending asks included), so the replay log is
  /// subsumed and cleared. Returns false (session unmoved) on any
  /// failure.
  bool migrate_session(const std::string& name, SessionRecord& record,
                       std::size_t to);

  /// Discards `name`'s staged import bytes on shard `to` (best-effort).
  void abort_import(const std::string& name, std::size_t to);

  /// Request-count-based health probe of every up shard (probe_every).
  void probe_all();

  /// Stamps a deterministic idempotency key onto a mutating client
  /// request that carries none (a copy; non-mutating requests pass
  /// through). Stamped once per logical client op, so failover replays
  /// and corrupted-reply resends all reuse the key — the wire-level
  /// exactly-once guarantee.
  util::json::Value stamp_idempotency(const util::json::Value& request);

  /// Delivers {"op":"fence","epoch":ring.epoch()} to every dead shard
  /// whose process is still reachable (a partition survivor), closing the
  /// split-brain window: once fenced, the stale primary rejects writes
  /// older than the membership change that replaced it. Unreachable
  /// shards stay pending and are retried by the next sweep.
  void sweep_fences();

  std::size_t shard_index(const std::string& name) const;
  std::size_t shard_of(const std::string& session) const;
  std::string checkpoint_path(std::size_t shard,
                              const std::string& session) const;
  util::json::Value redirected_response(const std::string& why);

  std::vector<Shard> shards_;
  HashRing ring_;
  RouterOptions options_;
  ShardClientOptions client_options_;
  std::map<std::string, SessionRecord> records_;
  RouterStats stats_;
  StandbyTracker standbys_;
  std::function<ShardSpec(const std::string&)> grow_factory_;
  /// Dead shards not yet confirmed fenced (indexes into shards_).
  std::vector<std::size_t> pending_fences_;
  std::uint64_t idem_counter_ = 0;
};

/// The pwu_router main loop: service::run_line_loop over handle_batch,
/// with windows of up to 256 already-buffered requests — so the client hop
/// gets the same line cap, pwu1 framing and hello negotiation as
/// pwu_serve. Returns the number of requests handled.
std::size_t run_router_loop(std::istream& in, std::ostream& out,
                            Router& router);

}  // namespace pwu::router
