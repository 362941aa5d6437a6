// Thread-safe registry of named, concurrently running AskTellSessions —
// the stateful heart of the tuning service.
//
// Locking is two-level: a registry mutex guards the name -> entry map, and
// each entry carries its own mutex, so operations on different sessions
// never serialize against each other. When a tell() completes a batch, the
// surrogate refit is submitted to the shared util::ThreadPool and joined
// lazily by the next operation on that session — refits of different
// sessions proceed in parallel even when all requests arrive on one
// protocol thread (the pwu_serve stdin loop).

#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/active_learner.hpp"
#include "service/ask_tell_session.hpp"
#include "service/overload.hpp"
#include "util/contracts.hpp"
#include "util/resource_budget.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"

namespace pwu::service {

/// Everything needed to (re)create a session deterministically. One master
/// seed drives the pool split and both session streams, in the same
/// derivation order core::run_experiment uses for its first repeat — so a
/// service session is label-for-label comparable to a batch run.
struct SessionSpec {
  std::string workload;
  std::string strategy = "pwu";
  double alpha = 0.05;
  core::LearnerConfig learner;
  std::size_t pool_size = 1500;
  /// Held-out configurations reserved by the pool split (the service never
  /// measures them; a client running its own evaluation uses them).
  std::size_t test_size = 0;
  std::uint64_t seed = 42;
};

struct SessionStatus {
  std::string name;
  std::string workload;
  std::string strategy;
  double alpha = 0.0;
  std::string phase;
  std::size_t labeled = 0;
  std::size_t n_max = 0;
  std::size_t pending = 0;
  std::size_t iteration = 0;
  std::size_t pool_remaining = 0;
  double cumulative_cost = 0.0;
  double best_observed = 0.0;  // NaN before the first tell
  bool done = false;
  /// Seed of the measurement stream a simulated client must use to
  /// reproduce the equivalent batch run (core::ActiveLearner::run).
  std::uint64_t measure_seed = 0;
};

struct TellOutcome {
  std::size_t labeled = 0;
  bool batch_complete = false;  // a refit was scheduled (or ran inline)
  bool done = false;
  /// Non-empty when this tell triggered an auto-checkpoint (the file it
  /// was atomically written to).
  std::string checkpoint_path;
};

struct FailureTellOutcome {
  FailureAction action = FailureAction::Dropped;
  std::size_t attempts = 0;
  double backoff_seconds = 0.0;
  bool batch_complete = false;
  bool done = false;
  /// Failed-set size after this report.
  std::size_t failed_total = 0;
  std::string checkpoint_path;
};

/// Result of a file-based resume, including whether crash recovery had to
/// fall back to the previous-good checkpoint copy.
struct ResumeOutcome {
  SessionStatus status;
  bool used_fallback = false;
  /// The file that actually supplied the state.
  std::string source_path;
};

/// One session's row in a health() report.
struct SessionHealth {
  std::string name;
  /// "live", "evicted" (checkpointed out under memory pressure),
  /// "quarantined" (repeated refit timeouts), or "busy" (another thread
  /// holds the session; health never blocks to find out more).
  std::string state;
  /// Warm-standby shadow copy of a session homed on another worker:
  /// replicated into, never listed, promoted on the primary's death.
  bool shadow = false;
  std::string phase;  // empty when busy or evicted
  std::size_t pending = 0;
  bool refit_in_flight = false;
  bool refit_deferred = false;
  std::size_t footprint_bytes = 0;
  std::size_t refit_timeouts = 0;
  std::size_t degraded_stale_asks = 0;
  std::size_t degraded_random_asks = 0;
};

/// Non-blocking process-level health snapshot (the `health` protocol op).
struct HealthReport {
  std::size_t sessions_live = 0;
  std::size_t sessions_evicted = 0;
  std::size_t sessions_quarantined = 0;
  std::size_t sessions_busy = 0;
  /// Warm-standby shadows hosted here (counted in the states above too).
  std::size_t sessions_shadow = 0;
  std::size_t refits_in_flight = 0;
  std::size_t refits_deferred = 0;
  std::size_t budget_used_bytes = 0;
  std::size_t budget_capacity_bytes = 0;  // 0 = unlimited
  std::uint64_t overloaded_sheds = 0;
  std::uint64_t degraded_stale_asks = 0;
  std::uint64_t degraded_random_asks = 0;
  std::uint64_t evictions = 0;
  std::uint64_t lazy_resumes = 0;
  std::uint64_t watchdog_timeouts = 0;
  /// Duplicated mutating ops answered from the idempotency window instead
  /// of re-executed, and the current fencing epoch (DESIGN.md §15).
  std::uint64_t idem_replays = 0;
  std::uint64_t fence_epoch = 0;
  std::vector<SessionHealth> sessions;
};

class SessionManager {
 public:
  /// `workers` parallelizes surrogate refits across sessions and within a
  /// forest fit; nullptr runs everything on the calling thread. `limits`
  /// turns on admission control / degraded asks / budgets; the default
  /// (all zeros, deadline -1) reproduces the un-governed legacy behavior
  /// exactly. `ticks` injects a clock for the refit watchdog — tests pass
  /// a util::ManualTickSource; nullptr uses the OS monotonic clock.
  explicit SessionManager(util::ThreadPool* workers = nullptr,
                          ServiceLimits limits = {},
                          const util::TickSource* ticks = nullptr);
  /// Joins outstanding background refits.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a named session against a registry workload. Throws
  /// std::invalid_argument for duplicate names or unknown workloads.
  SessionStatus create(const std::string& name, const SessionSpec& spec);

  /// Next batch of candidates (count 0 = the session default). Uses the
  /// configured default deadline (limits().ask_deadline_ms); with the
  /// default limits this blocks on any in-flight refit, exactly like the
  /// pre-overload manager.
  std::vector<Candidate> ask(const std::string& name, std::size_t count = 0);

  /// ask() with an explicit deadline budget in milliseconds. Negative =
  /// block until the fresh surrogate is ready; otherwise, when an
  /// in-flight (or deferred) refit cannot settle within the budget, the
  /// batch is served degraded — scored by the last-good model snapshot
  /// (DegradedMode::StaleModel) or drawn seeded-random when no snapshot
  /// exists (DegradedMode::Random). Throws OverloadError when the session
  /// is quarantined or the request exceeds the pending-ask cap.
  AskOutcome ask_with_deadline(const std::string& name, std::size_t count,
                               std::int64_t deadline_ms);

  /// Reports one measured label. The refit triggered by a completed batch
  /// runs on the worker pool when one is available.
  TellOutcome tell(const std::string& name,
                   const space::Configuration& config, double measured_time);

  /// Reports one *failed* measurement (see AskTellSession::tell_failure).
  FailureTellOutcome tell_failure(const std::string& name,
                                  const space::Configuration& config,
                                  sim::FailureKind kind,
                                  double cost_seconds = 0.0);

  SessionStatus status(const std::string& name) const;
  /// Live sessions, shadow replicas excluded: a shadow is infrastructure
  /// state, and listing it would double-count the session fleet-wide.
  std::vector<SessionStatus> list() const;

  /// Marks (or clears) a session as a warm-standby shadow. Shadows are
  /// fully live AskTellSessions — asks/tells apply normally via the
  /// `replicate` op — but list() skips them and health() labels them, so
  /// an aggregating router never sees the same session twice. Promotion
  /// is just mark_shadow(name, false): the state is already current.
  void mark_shadow(const std::string& name, bool shadow);
  bool is_shadow(const std::string& name) const;

  /// Process-level health snapshot: per-session state, queue depths,
  /// budget usage, shed/degraded counters. Never blocks on a busy session
  /// and never triggers a lazy resume (health is a probe, not a touch).
  HealthReport health() const;

  const ServiceLimits& limits() const { return limits_; }

  /// Removes the session; returns false when the name is unknown.
  bool close(const std::string& name);

  /// Serializes the full session state (spec header + AskTellSession
  /// checkpoint) so a restarted server loses no labels.
  void checkpoint(const std::string& name, std::ostream& os) const;

  /// Recreates a session from a checkpoint() stream under `name`. The
  /// workload is rebuilt from the registry; resumed random-forest sessions
  /// continue bit-identically.
  SessionStatus resume(const std::string& name, std::istream& is);

  /// Atomically writes a checkpoint() image of the session to `path`
  /// (util::atomic_write_file: tmp + CRC footer + fsync + rename, previous
  /// good copy rotated to its .bak). Returns the path written.
  std::string checkpoint_to_file(const std::string& name,
                                 const std::string& path) const;

  /// resume() from a file written by checkpoint_to_file, falling back to
  /// the .bak copy — with a warning logged — when the newest copy is
  /// truncated or corrupt. Throws std::runtime_error when no good copy
  /// exists.
  ResumeOutcome resume_from_file(const std::string& name,
                                 const std::string& path);

  /// Serializes the session into one in-memory checkpoint image — the
  /// migration transfer format. Identical bytes to checkpoint(); exists so
  /// the protocol layer can chunk the image through the line-length cap.
  std::string export_image(const std::string& name) const;

  /// Staged, chunked import of an export_image() (the receiving side of a
  /// migration): import_append accumulates chunks under `name`,
  /// import_commit atomically turns the staged bytes into a live session
  /// (optionally a shadow) and clears the staging slot, import_abort
  /// discards it. A commit with no staged bytes or a malformed image
  /// throws and leaves the registry untouched.
  void import_append(const std::string& name, const std::string& chunk);
  SessionStatus import_commit(const std::string& name, bool shadow);
  void import_abort(const std::string& name);

  /// Auto-checkpoint every `every_tells` tells per session, to
  /// `<directory>/<session>.ckpt`. 0 disables. Session names are validated
  /// to be filesystem-safe at create/resume time, so the path is always
  /// well-formed.
  void enable_auto_checkpoint(std::string directory, std::size_t every_tells);

  /// Graceful-shutdown barrier: joins every in-flight background refit and
  /// (when auto-checkpointing is enabled) writes a final checkpoint of
  /// every session, so nothing told before shutdown is lost.
  void drain();

  std::size_t size() const;

  // ---- wire-level idempotency (DESIGN.md §15) ------------------------------

  /// The remembered reply for a (session, key) pair, or nullopt when the
  /// key is unseen. A hit means the request is a duplicate (retry after a
  /// lost/corrupted reply, or a transport-level duplication) and the
  /// original reply must be replayed instead of re-executing the op.
  std::optional<std::string> idempotent_reply(const std::string& session,
                                              const std::string& key);

  /// Remembers `reply` for a (session, key) pair. The window is bounded
  /// per session (oldest key evicted past the cap), dropped wholesale when
  /// the session closes, and empty again when a session is created,
  /// resumed or imported under the name.
  void remember_reply(const std::string& session, const std::string& key,
                      std::string reply);

  /// Per-session idempotency-window capacity in keys (default 32; 0
  /// disables dedup entirely).
  void set_idempotency_window(std::size_t per_session_keys);
  std::size_t idempotency_window() const;

  // ---- fencing epochs (DESIGN.md §15) --------------------------------------

  /// Highest ring epoch this server has seen. Mutating ops stamped with a
  /// lower epoch are rejected by the protocol layer as `fenced`.
  std::uint64_t fence_epoch() const {
    return fence_epoch_.load(std::memory_order_relaxed);
  }

  /// Raises the fence monotonically (lower values are ignored).
  void raise_fence(std::uint64_t epoch);

 private:
  struct Entry {
    mutable std::mutex mutex;
    /// Serializes checkpoint-file writes for this entry so tell() can
    /// commit its serialized image *after* releasing `mutex` (no file I/O
    /// under the session lock). Ordered strictly after `mutex`: it may be
    /// taken while `mutex` is held (eviction, drain), never the reverse.
    mutable std::mutex ckpt_write_mutex;
    /// Null while the session is evicted to checkpoint (evicted == true);
    /// ensure_resumed() restores it on the next touch.
    std::unique_ptr<AskTellSession> session;
    SessionSpec spec;
    std::uint64_t measure_seed = 0;
    /// Pending background refit; settled before the next operation.
    std::future<void> refit PWU_GUARDED_BY(mutex);
    /// Tells since the last auto-checkpoint.
    std::size_t tells_since_checkpoint PWU_GUARDED_BY(mutex) = 0;
    /// Monotone stamp assigned to each serialized checkpoint image.
    std::uint64_t ckpt_seq PWU_GUARDED_BY(mutex) = 0;
    /// Stamp of the newest image actually written; commit_checkpoint
    /// skips stale pending images so a delayed writer can never clobber a
    /// newer checkpoint (or an eviction image).
    std::uint64_t ckpt_written_seq PWU_GUARDED_BY(ckpt_write_mutex) = 0;
    /// Model snapshot taken just before each refit starts — what a
    /// deadline-expired ask scores the pool with. Shared: the snapshot
    /// stays valid even while the refit replaces session->model().
    std::shared_ptr<core::Surrogate> last_good PWU_GUARDED_BY(mutex);
    /// Token of the in-flight refit; requested when the watchdog expires.
    std::shared_ptr<util::CancelToken> refit_cancel PWU_GUARDED_BY(mutex);
    /// Armed for the lifetime of each in-flight refit (internally locked).
    util::Watchdog refit_watchdog;
    /// Refits of this session cancelled by the watchdog so far.
    std::size_t refit_timeouts PWU_GUARDED_BY(mutex) = 0;
    /// A due refit could not be queued (refit-queue cap); re-attempted on
    /// the next touch. The fit itself stays recorded in the session's
    /// refit_due flag, so deferral survives checkpoint/eviction.
    bool refit_deferred PWU_GUARDED_BY(mutex) = false;
    /// Repeated refit timeouts exceeded limits_.refit_retries: asks and
    /// tells are shed; status/close/checkpoint still work.
    bool quarantined PWU_GUARDED_BY(mutex) = false;
    /// Session state lives in `<checkpoint dir>/<name>.ckpt`, not memory.
    std::atomic<bool> evicted{false};
    /// Warm-standby shadow replica (see mark_shadow).
    std::atomic<bool> shadow{false};
    /// Last memory_bytes() charged to the process budget.
    std::atomic<std::size_t> footprint{0};
    /// Logical LRU stamp (global touch counter, not wall-clock).
    std::atomic<std::uint64_t> last_touch{0};
  };

  std::shared_ptr<Entry> find(const std::string& name) const;
  /// Sheds with OverloadError when `live` sessions already fill the cap.
  void shed_at_session_cap(std::size_t live) const;
  /// The one registry insert behind create, resume and import: admits the
  /// session under the cap, charges its footprint, starts it with an empty
  /// idempotency window, and enforces the budget. `who` prefixes the
  /// duplicate-name error.
  SessionStatus install(const std::string& name,
                        std::unique_ptr<AskTellSession> session,
                        SessionSpec spec, std::uint64_t measure_seed,
                        const char* who);
  /// The locked sequence shared by tell and tell_failure: resume, shed when
  /// quarantined or still refitting, `apply` the report to the session
  /// (returns true when it completed the batch), auto-checkpoint, schedule
  /// the refit, then commit the checkpoint after release. Returns the
  /// checkpoint path written ("" when none).
  template <class Apply>
  std::string apply_tell(const std::string& name, Apply&& apply);
  SessionStatus status_locked(const std::string& name,
                              const Entry& entry) const;
  static void join_refit(Entry& entry);
  /// Writes the checkpoint image (spec header + session save) of a locked
  /// entry into `os`.
  static void serialize_locked(const Entry& entry, std::ostream& os);
  /// Snapshot of the auto-checkpoint settings, read under registry_mutex_.
  /// Callers take it *before* locking an entry mutex: the registry mutex is
  /// always ordered before entry mutexes, never acquired under one.
  struct AutoCheckpointPolicy {
    std::string dir;
    std::size_t every = 0;
  };
  AutoCheckpointPolicy auto_checkpoint_policy() const;
  /// A checkpoint image serialized under entry.mutex whose file write is
  /// deferred until after the lock is released (commit_checkpoint). An
  /// empty path means "nothing to write".
  struct PendingCheckpoint {
    std::string path;
    std::string image;
    std::uint64_t seq = 0;
    /// Explicit checkpoint_to_file requests always write, even when an
    /// auto-checkpoint with a newer stamp has already landed: the caller
    /// asked for a file at that path and must get one.
    bool forced = false;
  };
  /// Runs the every-N auto-checkpoint policy on a locked entry after a
  /// tell. Serializes only — returns the pending image for the caller to
  /// commit outside entry.mutex. Takes the policy snapshot by value so it
  /// never touches registry_mutex_ while the caller holds entry.mutex.
  static PendingCheckpoint maybe_auto_checkpoint(
      const std::string& name, Entry& entry,
      const AutoCheckpointPolicy& policy);
  /// Serializes a locked entry into an image for `path`, stamped newer
  /// than every image serialized before it (caller holds entry.mutex).
  static PendingCheckpoint stamp_image(Entry& entry, std::string path);
  /// Writes a pending image under entry.ckpt_write_mutex. Tells commit
  /// after releasing entry.mutex; eviction and drain commit holding it, so
  /// their final image and the teardown that follows stay atomic. Newest
  /// wins: a pending image staler than the last committed one is dropped
  /// unless `forced`.
  static void commit_checkpoint(Entry& entry,
                                const PendingCheckpoint& pending);
  /// Submits the session's due refit to the worker pool (caller holds
  /// entry->mutex). The task captures the entry shared_ptr — never a raw
  /// session pointer — so close()/~SessionManager()/eviction cannot free
  /// state under a running fit. Sets entry->refit_deferred instead when
  /// the refit-queue cap is full.
  void schedule_refit(const std::shared_ptr<Entry>& entry) const;
  /// Brings the entry's refit to rest within `deadline_ms` (caller holds
  /// entry->mutex). Returns true when no refit is outstanding afterwards
  /// (the model is fresh); false when the caller should degrade. Harvests
  /// watchdog-cancelled fits: requeues them up to limits_.refit_retries,
  /// then marks the entry quarantined.
  bool settle_refit(const std::shared_ptr<Entry>& entry,
                    std::int64_t deadline_ms) const;
  /// Lazily restores an evicted session from its checkpoint file (caller
  /// holds entry->mutex).
  void ensure_resumed(const std::string& name, Entry& entry,
                      const AutoCheckpointPolicy& policy) const;
  /// Recomputes the session footprint and charges it to the budget
  /// (caller holds entry->mutex with no refit in flight).
  void update_footprint(const std::string& name, Entry& entry) const;
  /// Evicts least-recently-touched idle sessions to checkpoint until the
  /// budget is back under capacity. Takes no entry locks it cannot get
  /// without blocking; callers must hold no locks.
  void enforce_budget();
  /// Stamps the entry's LRU counter.
  void touch(Entry& entry) const;
  /// Counts a shed and throws OverloadError with the configured hint.
  [[noreturn]] void shed(const std::string& what) const;

  mutable std::mutex registry_mutex_;
  std::map<std::string, std::shared_ptr<Entry>> sessions_ PWU_GUARDED_BY(registry_mutex_);
  util::ThreadPool* workers_ = nullptr;
  ServiceLimits limits_;
  util::SteadyTickSource default_ticks_;
  const util::TickSource* ticks_ = nullptr;
  mutable util::ResourceBudget budget_;
  std::string auto_checkpoint_dir_ PWU_GUARDED_BY(registry_mutex_);
  std::size_t auto_checkpoint_every_ PWU_GUARDED_BY(registry_mutex_) = 0;
  /// Partially transferred import images, keyed by session name (see
  /// import_append/import_commit).
  std::map<std::string, std::string> import_staging_ PWU_GUARDED_BY(registry_mutex_);
  mutable std::atomic<std::size_t> refits_in_flight_{0};
  mutable std::atomic<std::uint64_t> touch_clock_{0};
  mutable std::atomic<std::uint64_t> overloaded_sheds_{0};
  mutable std::atomic<std::uint64_t> degraded_stale_total_{0};
  mutable std::atomic<std::uint64_t> degraded_random_total_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> lazy_resumes_{0};
  mutable std::atomic<std::uint64_t> watchdog_timeouts_{0};

  /// Idempotency windows live beside the registry (own leaf mutex, never
  /// held together with registry or entry mutexes) so dedup bookkeeping
  /// cannot perturb the session locking order. `order` is a bounded FIFO
  /// of keys (capacity idem_window_cap_), oldest evicted first.
  struct IdemWindow {
    std::map<std::string, std::string> replies;
    std::vector<std::string> order;
  };
  mutable std::mutex idem_mutex_;
  std::map<std::string, IdemWindow> idem_windows_ PWU_GUARDED_BY(idem_mutex_);
  std::size_t idem_window_cap_ PWU_GUARDED_BY(idem_mutex_) = 32;
  mutable std::atomic<std::uint64_t> idem_replays_{0};
  std::atomic<std::uint64_t> fence_epoch_{0};
};

}  // namespace pwu::service
