#include "service/session_manager.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "space/pool.hpp"
#include "util/contracts.hpp"
#include "util/fs_atomic.hpp"
#include "util/killpoints.hpp"
#include "util/logging.hpp"
#include "workloads/registry.hpp"

namespace pwu::service {

namespace {

/// Session names become checkpoint file names, so they must be
/// filesystem-safe: no separators, no traversal, no shell surprises.
void validate_session_name(const std::string& name, const char* who) {
  if (name.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty session name");
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) {
      throw std::invalid_argument(
          std::string(who) + ": session name '" + name +
          "' contains characters outside [A-Za-z0-9._-]");
    }
  }
  if (name[0] == '.') {
    throw std::invalid_argument(std::string(who) + ": session name '" + name +
                                "' must not start with '.'");
  }
}

/// Where auto-checkpoints, evictions and drain write a session's image.
std::string auto_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".ckpt";
}

/// Parsed form of a checkpoint() stream: the wrapper header plus the
/// restored session. Shared by resume() and the lazy eviction-resume path.
struct ParsedCheckpoint {
  SessionSpec spec;
  std::uint64_t measure_seed = 0;
  std::unique_ptr<AskTellSession> session;
};

ParsedCheckpoint parse_checkpoint(std::istream& is,
                                  util::ThreadPool* workers) {
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != "pwu-session-file" ||
      version != 1) {
    throw std::runtime_error("SessionManager::resume: bad checkpoint header");
  }
  ParsedCheckpoint parsed;
  std::string token;
  if (!(is >> token >> parsed.spec.workload) || token != "workload") {
    throw std::runtime_error("SessionManager::resume: bad workload line");
  }
  if (!(is >> token >> parsed.spec.pool_size >> parsed.spec.test_size >>
        parsed.spec.seed) ||
      token != "sizes") {
    throw std::runtime_error("SessionManager::resume: bad sizes line");
  }
  if (!(is >> token >> parsed.measure_seed) || token != "measure_seed") {
    throw std::runtime_error("SessionManager::resume: bad measure_seed line");
  }

  const workloads::WorkloadPtr workload =
      workloads::make_workload(parsed.spec.workload);
  parsed.session = std::make_unique<AskTellSession>(
      AskTellSession::restore(workload->space(), is, workers));
  // Surface the restored strategy/config in status output.
  if (parsed.session->strategy_spec().has_value()) {
    parsed.spec.strategy = parsed.session->strategy_spec()->name;
    parsed.spec.alpha = parsed.session->strategy_spec()->alpha;
  }
  parsed.spec.learner = parsed.session->config();
  return parsed;
}

}  // namespace

SessionManager::SessionManager(util::ThreadPool* workers, ServiceLimits limits,
                               const util::TickSource* ticks)
    : workers_(workers),
      limits_(limits),
      ticks_(ticks != nullptr ? ticks : &default_ticks_),
      budget_(limits.memory_budget_bytes) {}

SessionManager::~SessionManager() {
  std::lock_guard registry_lock(registry_mutex_);
  for (auto& [name, entry] : sessions_) {
    std::lock_guard entry_lock(entry->mutex);
    try {
      join_refit(*entry);
    } catch (...) {
      // A refit that was cancelled (or failed) with nobody left to care:
      // destruction must not throw.
    }
  }
}

// Callers hold entry.mutex; the lock lives one frame up, so the lock-
// discipline lint needs explicit annotation here.
void SessionManager::join_refit(Entry& entry) {
  if (entry.refit.valid()) {  // pwu-lint: allow(no-unlocked-mutable)
    // Rethrows a failed refit to the next caller.
    entry.refit.get();  // pwu-lint: allow(no-unlocked-mutable)
  }
}

void SessionManager::touch(Entry& entry) const {
  entry.last_touch.store(
      touch_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
}

void SessionManager::shed(const std::string& what) const {
  overloaded_sheds_.fetch_add(1, std::memory_order_relaxed);
  throw OverloadError(what, limits_.retry_after_ms);
}

void SessionManager::update_footprint(const std::string& name,
                                      Entry& entry) const {
  // Caller holds entry.mutex with no refit in flight (memory_bytes reads
  // the model the fit would be replacing).
  const std::size_t bytes = entry.session->memory_bytes();
  entry.footprint.store(bytes, std::memory_order_relaxed);
  budget_.charge(name, bytes);
}

std::shared_ptr<SessionManager::Entry> SessionManager::find(
    const std::string& name) const {
  std::lock_guard lock(registry_mutex_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    throw std::invalid_argument("SessionManager: no session named '" + name +
                                "'");
  }
  PWU_ENSURE(it->second != nullptr &&
                 (it->second->session != nullptr ||
                  it->second->evicted.load(std::memory_order_relaxed)),
             "find: registry entry for '" << name << "' lost its session");
  return it->second;
}

SessionStatus SessionManager::status_locked(const std::string& name,
                                            const Entry& entry) const {
  PWU_REQUIRE(entry.session != nullptr,
              "status_locked: entry '" << name << "' has no session");
  const AskTellSession& session = *entry.session;
  SessionStatus status;
  status.name = name;
  status.workload = entry.spec.workload;
  status.strategy = entry.spec.strategy;
  status.alpha = entry.spec.alpha;
  status.phase = to_string(session.phase());
  status.labeled = session.num_labeled();
  status.n_max = session.config().n_max;
  status.pending = session.pending_count();
  status.iteration = session.iteration();
  status.pool_remaining = session.pool_remaining();
  status.cumulative_cost = session.cumulative_cost();
  status.best_observed = session.best_observed();
  status.done = session.done();
  status.measure_seed = entry.measure_seed;
  return status;
}

void SessionManager::ensure_resumed(const std::string& name, Entry& entry,
                                    const AutoCheckpointPolicy& policy) const {
  if (entry.session != nullptr) return;
  PWU_ASSERT(entry.evicted.load(std::memory_order_relaxed),
             "ensure_resumed: entry '" << name
                                       << "' has no session but is not "
                                          "marked evicted");
  const std::string path = auto_path(policy.dir, name);
  const util::RecoveredRead read = util::read_checkpoint_with_fallback(path);
  if (read.status != util::ReadStatus::Ok) {
    throw std::runtime_error(
        std::string("SessionManager: cannot resume evicted session '") + name +
        "': " + util::to_string(read.status) + " checkpoint '" + path + "'");
  }
  std::istringstream is(read.payload);
  ParsedCheckpoint parsed = parse_checkpoint(is, workers_);
  entry.session = std::move(parsed.session);  // pwu-lint: allow(no-unlocked-mutable)
  entry.spec = std::move(parsed.spec);
  entry.measure_seed = parsed.measure_seed;
  entry.evicted.store(false, std::memory_order_relaxed);
  lazy_resumes_.fetch_add(1, std::memory_order_relaxed);
  update_footprint(name, entry);
}

SessionStatus SessionManager::create(const std::string& name,
                                     const SessionSpec& spec) {
  validate_session_name(name, "SessionManager::create");
  // Cheap admission pre-check before the expensive pool build; the
  // authoritative check happens again under the registry lock at insert.
  shed_at_session_cap(size());
  const workloads::WorkloadPtr workload =
      workloads::make_workload(spec.workload);

  // Seed derivation mirrors one repeat of core::run_experiment: a split
  // stream for the pool, then a run stream whose first two draws become
  // the session seed and the client's measurement seed. A batch
  // ActiveLearner::run over the same derivation is label-for-label
  // identical to this session (tests/test_ask_tell.cpp).
  util::Rng master PWU_RNG_STREAM(session_derivation)(spec.seed);
  util::Rng split_rng = master.fork();
  space::PoolSplit split = space::make_pool_split(
      workload->space(), spec.pool_size, spec.test_size, split_rng);
  util::Rng run_rng = master.fork();
  const std::uint64_t session_seed = run_rng.next_u64();
  const std::uint64_t measure_seed = run_rng.next_u64();

  return install(name,
                 std::make_unique<AskTellSession>(
                     workload->space(), StrategySpec{spec.strategy, spec.alpha},
                     spec.learner, std::move(split.pool), session_seed,
                     workers_),
                 spec, measure_seed, "SessionManager::create");
}

void SessionManager::shed_at_session_cap(std::size_t live) const {
  if (limits_.max_sessions != 0 && live >= limits_.max_sessions) {
    shed("session cap (" + std::to_string(limits_.max_sessions) +
         ") reached");
  }
}

SessionStatus SessionManager::install(const std::string& name,
                                      std::unique_ptr<AskTellSession> session,
                                      SessionSpec spec,
                                      std::uint64_t measure_seed,
                                      const char* who) {
  auto entry = std::make_shared<Entry>();
  entry->session = std::move(session);
  entry->spec = std::move(spec);
  entry->measure_seed = measure_seed;
  SessionStatus status;
  {
    std::lock_guard lock(registry_mutex_);
    shed_at_session_cap(sessions_.size());
    const auto [it, inserted] = sessions_.emplace(name, std::move(entry));
    if (!inserted) {
      throw std::invalid_argument(std::string(who) + ": session '" + name +
                                  "' already exists");
    }
    {
      // A new session under a reused name starts with an empty dedup
      // window: a key remembered for an earlier session of that name (its
      // close reply included) must not answer for this one. Emptied before
      // the registry lock drops, so no reply the new session records is
      // lost to it.
      std::lock_guard idem_lock(idem_mutex_);
      idem_windows_.erase(name);
    }
    touch(*it->second);
    it->second->footprint.store(it->second->session->memory_bytes(),
                                std::memory_order_relaxed);
    budget_.charge(name, it->second->footprint.load(std::memory_order_relaxed));
    status = status_locked(name, *it->second);
  }
  enforce_budget();
  return status;
}

std::vector<Candidate> SessionManager::ask(const std::string& name,
                                           std::size_t count) {
  return ask_with_deadline(name, count, limits_.ask_deadline_ms).candidates;
}

AskOutcome SessionManager::ask_with_deadline(const std::string& name,
                                             std::size_t count,
                                             std::int64_t deadline_ms) {
  const AutoCheckpointPolicy policy = auto_checkpoint_policy();
  const std::shared_ptr<Entry> entry = find(name);
  AskOutcome outcome;
  {
    std::lock_guard lock(entry->mutex);
    touch(*entry);
    ensure_resumed(name, *entry, policy);  // pwu-lint: blocking-ok(lazy resume must swap entry->session in atomically; the restore refit runs on the helping pool and takes no lock)
    if (entry->quarantined) {
      shed("session '" + name + "' is quarantined (repeated refit timeouts)");
    }
    if (limits_.max_pending_asks != 0) {
      const auto& config = entry->session->config();
      // Cold start always serves exactly n_init, regardless of any explicit
      // count (Algorithm 1, lines 1-4); size the admission check the way
      // the session will actually answer.
      const std::size_t want =
          entry->session->phase() == SessionPhase::ColdStart
              ? config.n_init
              : (count != 0 ? count : config.n_batch);
      if (want > limits_.max_pending_asks) {
        shed("ask for " + std::to_string(want) +
             " candidates exceeds the pending-ask cap (" +
             std::to_string(limits_.max_pending_asks) + ")");
      }
    }
    bool fresh = settle_refit(entry, deadline_ms);  // pwu-lint: blocking-ok(inline-fallback fit only; parallel_for helping-join takes no lock, entry.mutex is a leaf here)
    if (fresh && entry->session->refit_due() && deadline_ms >= 0 &&
        workers_ != nullptr && workers_->num_threads() > 1) {
      // A due-but-unscheduled refit (restored checkpoint, lazy resume):
      // run it on the pool and hold it to the same deadline instead of
      // letting ask() block on it inline.
      schedule_refit(entry);  // pwu-lint: blocking-ok(single-thread fallback runs the fit inline; the pool path is type-erased and lock-free)
      fresh = settle_refit(entry, deadline_ms);  // pwu-lint: blocking-ok(inline-fallback fit only; parallel_for helping-join takes no lock, entry.mutex is a leaf here)
    }
    if (entry->quarantined) {
      shed("session '" + name + "' is quarantined (repeated refit timeouts)");
    }
    if (fresh) {
      outcome.candidates = entry->session->ask(count);  // pwu-lint: blocking-ok(batch scoring on the helping pool; entry.mutex is a leaf, no lock is taken inside predict)
      update_footprint(name, *entry);
    } else {
      const core::Surrogate* stale = entry->last_good.get();
      const bool scored = stale != nullptr && stale->fitted();
      outcome.candidates = entry->session->ask_degraded(count, stale);  // pwu-lint: blocking-ok(batch scoring on the helping pool; entry.mutex is a leaf, no lock is taken inside predict)
      if (!outcome.candidates.empty()) {
        outcome.degraded =
            scored ? DegradedMode::StaleModel : DegradedMode::Random;
        (scored ? degraded_stale_total_ : degraded_random_total_)
            .fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  enforce_budget();
  return outcome;
}

void SessionManager::schedule_refit(const std::shared_ptr<Entry>& entry) const {
  // Caller holds entry->mutex.
  if (workers_ != nullptr && workers_->num_threads() > 1) {
    // Snapshot the current model first: it is what deadline-expired asks
    // score the pool with while the fresh fit runs or waits for a queue
    // slot, and shared ownership keeps it alive even after the fit swaps
    // session->model(). An inline fit (below) never leaves an ask waiting.
    entry->last_good = entry->session->model();  // pwu-lint: allow(no-unlocked-mutable)
    if (limits_.max_refit_queue != 0 &&
        refits_in_flight_.load(std::memory_order_relaxed) >=
            limits_.max_refit_queue) {
      // Queue full: leave the fit due inside the session (it survives
      // checkpoints that way) and re-attempt on the next touch.
      entry->refit_deferred = true;  // pwu-lint: allow(no-unlocked-mutable)
      return;
    }
    auto cancel = std::make_shared<util::CancelToken>();
    entry->refit_cancel = cancel;  // pwu-lint: allow(no-unlocked-mutable)
    entry->refit_watchdog.arm(*ticks_, limits_.refit_watchdog_ms);
    refits_in_flight_.fetch_add(1, std::memory_order_relaxed);
    // The task owns the entry shared_ptr (never a raw session pointer):
    // close(), eviction, or manager destruction cannot free session state
    // while the fit is running. It runs without entry->mutex — every other
    // session operation settles the future before touching fields the fit
    // uses (model_, rng_, the training set).
    // pwu-lint: allow-next-line(no-unlocked-mutable)
    entry->refit = workers_->submit([this, entry, cancel] {
      struct Decrement {
        const std::atomic<std::size_t>& counter;
        ~Decrement() {
          const_cast<std::atomic<std::size_t>&>(counter).fetch_sub(
              1, std::memory_order_relaxed);
        }
      } decrement{refits_in_flight_};
      // pwu-lint: allow-next-line(no-unlocked-mutable)
      entry->session->refit(cancel.get());
    });
  } else {
    entry->session->refit();  // pwu-lint: allow(no-unlocked-mutable)
  }
}

bool SessionManager::settle_refit(const std::shared_ptr<Entry>& entry,
                                  std::int64_t deadline_ms) const {
  // Caller holds entry->mutex.
  for (;;) {
    // pwu-lint: allow-next-line(no-unlocked-mutable)
    if (entry->refit_deferred && !entry->refit.valid()) {
      entry->refit_deferred = false;  // pwu-lint: allow(no-unlocked-mutable)
      schedule_refit(entry);
      if (entry->refit_deferred) {  // pwu-lint: allow(no-unlocked-mutable)
        // Still no queue slot. A blocking caller runs the fit inline
        // rather than busy-wait for a slot; a deadline caller degrades.
        if (deadline_ms >= 0) return false;
        entry->refit_deferred = false;  // pwu-lint: allow(no-unlocked-mutable)
        entry->session->refit();  // pwu-lint: allow(no-unlocked-mutable)
        entry->last_good.reset();  // pwu-lint: allow(no-unlocked-mutable)
        return true;
      }
    }
    if (!entry->refit.valid()) return true;  // pwu-lint: allow(no-unlocked-mutable)

    if (deadline_ms < 0) {
      entry->refit.wait();  // pwu-lint: allow(no-unlocked-mutable)
      // pwu-lint: allow-next-line(no-unlocked-mutable)
    } else if (entry->refit.wait_for(std::chrono::milliseconds(
                   deadline_ms)) !=
               std::future_status::ready) {
      // Deadline expired with the fit still running. If it has also blown
      // its watchdog budget, ask it to stop burning a worker; the
      // cancellation is harvested (and the fit requeued or the session
      // quarantined) on a later settle.
      // pwu-lint: allow-next-line(no-unlocked-mutable)
      if (entry->refit_watchdog.expired() && entry->refit_cancel != nullptr &&
          !entry->refit_cancel->requested()) {  // pwu-lint: allow(no-unlocked-mutable)
        entry->refit_cancel->request();  // pwu-lint: allow(no-unlocked-mutable)
        watchdog_timeouts_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }

    std::future<void> settled = std::move(entry->refit);  // pwu-lint: allow(no-unlocked-mutable)
    entry->refit_watchdog.disarm();
    entry->refit_cancel.reset();  // pwu-lint: allow(no-unlocked-mutable)
    try {
      settled.get();
      // The snapshot only serves asks that arrive while a refit is in
      // flight, and the next schedule_refit takes a fresh one: holding it
      // past a settled fit would keep the previous forest alive.
      entry->last_good.reset();  // pwu-lint: allow(no-unlocked-mutable)
      return true;
    } catch (const util::Cancelled&) {
      // The watchdog cancelled this fit. The session rolled its rng back,
      // so a requeued fit replays identically.
      ++entry->refit_timeouts;  // pwu-lint: allow(no-unlocked-mutable)
      if (entry->refit_timeouts > limits_.refit_retries) {  // pwu-lint: allow(no-unlocked-mutable)
        entry->quarantined = true;  // pwu-lint: allow(no-unlocked-mutable)
        return false;
      }
      schedule_refit(entry);
      // Loop: wait for (or degrade around) the requeued fit.
    }
  }
}

template <class Apply>
std::string SessionManager::apply_tell(const std::string& name,
                                       Apply&& apply) {
  // Snapshot before locking the entry: registry_mutex_ is ordered before
  // entry mutexes, so it must never be acquired while one is held.
  const AutoCheckpointPolicy policy = auto_checkpoint_policy();
  const std::shared_ptr<Entry> entry = find(name);
  PendingCheckpoint pending;
  {
    std::lock_guard lock(entry->mutex);
    touch(*entry);
    ensure_resumed(name, *entry, policy);  // pwu-lint: blocking-ok(lazy resume must swap entry->session in atomically; the restore refit runs on the helping pool and takes no lock)
    if (entry->quarantined) {
      shed("session '" + name + "' is quarantined (repeated refit timeouts)");
    }
    // A tell writes the training set the refit is reading — it must never
    // overlap an in-flight fit. Within the deadline we wait; past it we
    // shed (degrading is not an option for writes).
    if (!settle_refit(entry, limits_.ask_deadline_ms)) {  // pwu-lint: blocking-ok(inline-fallback fit only; parallel_for helping-join takes no lock, entry.mutex is a leaf here)
      if (entry->quarantined) {
        shed("session '" + name +
             "' is quarantined (repeated refit timeouts)");
      }
      shed("session '" + name + "' refit still in flight");
    }
    const bool batch_complete = apply(*entry->session);
    // Serialize the checkpoint before scheduling the refit: a refit-due
    // session image restores exactly (the refit replays from the saved
    // rng). The file write itself is deferred past the locked scope.
    pending = maybe_auto_checkpoint(name, *entry, policy);
    update_footprint(name, *entry);
    if (batch_complete) schedule_refit(entry);  // pwu-lint: blocking-ok(single-thread fallback runs the fit inline; the pool path is type-erased and lock-free)
  }
  // The tell is applied in memory but its checkpoint is not yet on disk —
  // exactly the window the chaos harness proves recoverable.
  util::killpoint("session_manager.tell.applied");
  commit_checkpoint(*entry, pending);
  enforce_budget();
  return pending.path;
}

TellOutcome SessionManager::tell(const std::string& name,
                                 const space::Configuration& config,
                                 double measured_time) {
  TellOutcome outcome;
  outcome.checkpoint_path = apply_tell(name, [&](AskTellSession& session) {
    outcome.batch_complete = session.tell(config, measured_time);
    outcome.labeled = session.num_labeled();
    outcome.done = session.done();
    return outcome.batch_complete;
  });
  return outcome;
}

FailureTellOutcome SessionManager::tell_failure(
    const std::string& name, const space::Configuration& config,
    sim::FailureKind kind, double cost_seconds) {
  FailureTellOutcome outcome;
  outcome.checkpoint_path = apply_tell(name, [&](AskTellSession& session) {
    const FailureOutcome result =
        session.tell_failure(config, kind, cost_seconds);
    outcome.action = result.action;
    outcome.attempts = result.attempts;
    outcome.backoff_seconds = result.backoff_seconds;
    outcome.batch_complete = result.batch_complete;
    outcome.done = session.done();
    outcome.failed_total = session.failed().size();
    return outcome.batch_complete;
  });
  return outcome;
}

SessionStatus SessionManager::status(const std::string& name) const {
  const AutoCheckpointPolicy policy = auto_checkpoint_policy();
  const std::shared_ptr<Entry> entry = find(name);
  std::lock_guard lock(entry->mutex);
  ensure_resumed(name, *entry, policy);  // pwu-lint: blocking-ok(lazy resume must swap entry->session in atomically; the restore refit runs on the helping pool and takes no lock)
  // Bring the refit to rest within the configured deadline; when it is
  // still running past the deadline, report anyway — everything
  // status_locked reads is disjoint from what the fit writes.
  settle_refit(entry, limits_.ask_deadline_ms);  // pwu-lint: blocking-ok(inline-fallback fit only; parallel_for helping-join takes no lock, entry.mutex is a leaf here)
  return status_locked(name, *entry);
}

std::vector<SessionStatus> SessionManager::list() const {
  std::vector<std::string> names;
  {
    std::lock_guard lock(registry_mutex_);
    names.reserve(sessions_.size());
    for (const auto& [name, entry] : sessions_) {
      // Shadows are replication infrastructure, not tenant sessions: an
      // aggregating router must never see the same session from both its
      // primary and its standby.
      if (entry->shadow.load(std::memory_order_relaxed)) continue;
      names.push_back(name);
    }
  }
  std::vector<SessionStatus> statuses;
  statuses.reserve(names.size());
  for (const auto& name : names) {
    try {
      statuses.push_back(status(name));
    } catch (const std::invalid_argument&) {
      // Closed between the snapshot and the status call — skip.
    }
  }
  return statuses;
}

HealthReport SessionManager::health() const {
  HealthReport report;
  report.refits_in_flight = refits_in_flight_.load(std::memory_order_relaxed);
  report.budget_used_bytes = budget_.used();
  report.budget_capacity_bytes = budget_.capacity();
  report.overloaded_sheds = overloaded_sheds_.load(std::memory_order_relaxed);
  report.degraded_stale_asks =
      degraded_stale_total_.load(std::memory_order_relaxed);
  report.degraded_random_asks =
      degraded_random_total_.load(std::memory_order_relaxed);
  report.evictions = evictions_.load(std::memory_order_relaxed);
  report.lazy_resumes = lazy_resumes_.load(std::memory_order_relaxed);
  report.watchdog_timeouts =
      watchdog_timeouts_.load(std::memory_order_relaxed);
  report.idem_replays = idem_replays_.load(std::memory_order_relaxed);
  report.fence_epoch = fence_epoch_.load(std::memory_order_relaxed);

  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> entries;
  {
    std::lock_guard lock(registry_mutex_);
    entries.reserve(sessions_.size());
    for (const auto& [name, entry] : sessions_) {
      entries.emplace_back(name, entry);
    }
  }
  for (const auto& [name, entry] : entries) {
    SessionHealth sh;
    sh.name = name;
    sh.footprint_bytes = entry->footprint.load(std::memory_order_relaxed);
    sh.shadow = entry->shadow.load(std::memory_order_relaxed);
    if (sh.shadow) ++report.sessions_shadow;
    std::unique_lock lock(entry->mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
      sh.state = "busy";
      ++report.sessions_busy;
    } else if (entry->session == nullptr) {
      sh.state = "evicted";
      ++report.sessions_evicted;
    } else {
      sh.state = entry->quarantined ? "quarantined" : "live";
      sh.phase = to_string(entry->session->phase());
      sh.pending = entry->session->pending_count();
      sh.refit_in_flight = entry->refit.valid();
      sh.refit_deferred = entry->refit_deferred;
      sh.refit_timeouts = entry->refit_timeouts;
      sh.degraded_stale_asks = entry->session->degraded_stale_asks();
      sh.degraded_random_asks = entry->session->degraded_random_asks();
      if (entry->quarantined) {
        ++report.sessions_quarantined;
      } else {
        ++report.sessions_live;
      }
      if (sh.refit_deferred) ++report.refits_deferred;
    }
    report.sessions.push_back(std::move(sh));
  }
  return report;
}

bool SessionManager::close(const std::string& name) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard lock(registry_mutex_);
    const auto it = sessions_.find(name);
    if (it == sessions_.end()) return false;
    entry = std::move(it->second);
    sessions_.erase(it);
  }
  // Drain the refit outside the registry lock so closing a busy session
  // does not stall unrelated requests.
  {
    std::lock_guard entry_lock(entry->mutex);
    try {
      join_refit(*entry);
    } catch (...) {
      // The session is being discarded; a failed or cancelled refit has
      // nobody left to report to.
    }
  }
  budget_.charge(name, 0);
  {
    // The session's dedup window goes with it: a duplicate of an earlier op
    // answers "no session named ..." like any other stale request. The
    // protocol layer then remembers the close's own reply in a fresh window
    // (a retried close must replay it), and install() clears that window
    // when a new session takes the name.
    std::lock_guard idem_lock(idem_mutex_);
    idem_windows_.erase(name);
  }
  return true;
}

std::optional<std::string> SessionManager::idempotent_reply(
    const std::string& session, const std::string& key) {
  std::lock_guard lock(idem_mutex_);
  const auto window = idem_windows_.find(session);
  if (window == idem_windows_.end()) return std::nullopt;
  const auto hit = window->second.replies.find(key);
  if (hit == window->second.replies.end()) return std::nullopt;
  idem_replays_.fetch_add(1, std::memory_order_relaxed);
  return hit->second;
}

void SessionManager::remember_reply(const std::string& session,
                                    const std::string& key,
                                    std::string reply) {
  std::lock_guard lock(idem_mutex_);
  if (idem_window_cap_ == 0) return;
  IdemWindow& window = idem_windows_[session];
  const auto [it, inserted] =
      window.replies.emplace(key, std::move(reply));
  if (!inserted) return;  // first reply wins; duplicates replay it
  window.order.push_back(key);
  while (window.order.size() > idem_window_cap_) {
    window.replies.erase(window.order.front());
    window.order.erase(window.order.begin());
  }
}

void SessionManager::set_idempotency_window(std::size_t per_session_keys) {
  std::lock_guard lock(idem_mutex_);
  idem_window_cap_ = per_session_keys;
  if (idem_window_cap_ == 0) idem_windows_.clear();
}

std::size_t SessionManager::idempotency_window() const {
  std::lock_guard lock(idem_mutex_);
  return idem_window_cap_;
}

void SessionManager::raise_fence(std::uint64_t epoch) {
  std::uint64_t current = fence_epoch_.load(std::memory_order_relaxed);
  while (epoch > current &&
         !fence_epoch_.compare_exchange_weak(current, epoch,
                                             std::memory_order_relaxed)) {
  }
}

void SessionManager::serialize_locked(const Entry& entry, std::ostream& os) {
  os << "pwu-session-file 1\n";
  os << "workload " << entry.spec.workload << '\n';
  os << "sizes " << entry.spec.pool_size << ' ' << entry.spec.test_size << ' '
     << entry.spec.seed << '\n';
  os << "measure_seed " << entry.measure_seed << '\n';
  entry.session->save(os);
}

void SessionManager::checkpoint(const std::string& name,
                                std::ostream& os) const {
  const AutoCheckpointPolicy policy = auto_checkpoint_policy();
  const std::shared_ptr<Entry> entry = find(name);
  std::lock_guard lock(entry->mutex);
  ensure_resumed(name, *entry, policy);  // pwu-lint: blocking-ok(lazy resume must swap entry->session in atomically; the restore refit runs on the helping pool and takes no lock)
  join_refit(*entry);
  serialize_locked(*entry, os);
}

std::string SessionManager::checkpoint_to_file(const std::string& name,
                                               const std::string& path) const {
  const AutoCheckpointPolicy policy = auto_checkpoint_policy();
  const std::shared_ptr<Entry> entry = find(name);
  PendingCheckpoint pending;
  {
    std::lock_guard lock(entry->mutex);
    ensure_resumed(name, *entry, policy);  // pwu-lint: blocking-ok(lazy resume must swap entry->session in atomically; the restore refit runs on the helping pool and takes no lock)
    join_refit(*entry);
    pending = stamp_image(*entry, path);
  }
  pending.forced = true;
  commit_checkpoint(*entry, pending);
  return path;
}

SessionManager::AutoCheckpointPolicy SessionManager::auto_checkpoint_policy()
    const {
  std::lock_guard lock(registry_mutex_);
  return AutoCheckpointPolicy{auto_checkpoint_dir_, auto_checkpoint_every_};
}

SessionManager::PendingCheckpoint SessionManager::maybe_auto_checkpoint(
    const std::string& name, Entry& entry,
    const AutoCheckpointPolicy& policy) {
  if (policy.every == 0) return {};
  // Caller holds entry.mutex (same contract as join_refit).
  if (++entry.tells_since_checkpoint < policy.every) return {};  // pwu-lint: allow(no-unlocked-mutable)
  entry.tells_since_checkpoint = 0;  // pwu-lint: allow(no-unlocked-mutable)
  return stamp_image(entry, auto_path(policy.dir, name));
}

SessionManager::PendingCheckpoint SessionManager::stamp_image(
    Entry& entry, std::string path) {
  // Caller holds entry.mutex, so stamps follow serialization order.
  PendingCheckpoint pending;
  pending.path = std::move(path);
  std::ostringstream image;
  serialize_locked(entry, image);
  pending.image = image.str();
  pending.seq = ++entry.ckpt_seq;  // pwu-lint: allow(no-unlocked-mutable)
  return pending;
}

void SessionManager::commit_checkpoint(Entry& entry,
                                       const PendingCheckpoint& pending) {
  if (pending.path.empty()) return;
  std::lock_guard lock(entry.ckpt_write_mutex);
  // Newest wins: if a concurrent tell already committed a later image (or
  // an eviction wrote the final one), this stale image must not land.
  if (!pending.forced && pending.seq <= entry.ckpt_written_seq) return;
  // pwu-lint: blocking-ok(ckpt_write_mutex exists precisely to serialize checkpoint writers; only eviction and drain arrive holding entry.mutex)
  util::atomic_write_file(pending.path, pending.image);
  if (pending.seq > entry.ckpt_written_seq) {
    entry.ckpt_written_seq = pending.seq;
  }
}

ResumeOutcome SessionManager::resume_from_file(const std::string& name,
                                               const std::string& path) {
  const util::RecoveredRead read = util::read_checkpoint_with_fallback(path);
  if (read.status != util::ReadStatus::Ok) {
    throw std::runtime_error(std::string("SessionManager::resume_from_file: ") +
                             util::to_string(read.status) + " checkpoint '" +
                             path + "'");
  }
  if (read.used_fallback) {
    util::log_warn() << "checkpoint '" << path
                     << "' is truncated or corrupt; restoring from last good "
                        "copy '"
                     << read.source_path << "'";
  }
  std::istringstream is(read.payload);
  ResumeOutcome outcome;
  outcome.status = resume(name, is);
  outcome.used_fallback = read.used_fallback;
  outcome.source_path = read.source_path;
  return outcome;
}

void SessionManager::enable_auto_checkpoint(std::string directory,
                                            std::size_t every_tells) {
  std::lock_guard lock(registry_mutex_);
  auto_checkpoint_dir_ = std::move(directory);
  auto_checkpoint_every_ = every_tells;
}

void SessionManager::enforce_budget() {
  if (limits_.memory_budget_bytes == 0) return;
  if (!budget_.over_capacity()) return;
  const AutoCheckpointPolicy policy = auto_checkpoint_policy();
  if (policy.dir.empty()) return;  // nowhere to evict to

  // Oldest logical touch first. try_lock only: a session someone is using
  // is by definition not idle, and eviction must never wait behind it.
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> entries;
  {
    std::lock_guard lock(registry_mutex_);
    entries.reserve(sessions_.size());
    for (const auto& [name, entry] : sessions_) {
      entries.emplace_back(name, entry);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return a.second->last_touch.load(std::memory_order_relaxed) <
                     b.second->last_touch.load(std::memory_order_relaxed);
            });
  for (const auto& [name, entry] : entries) {
    if (!budget_.over_capacity()) break;
    std::unique_lock lock(entry->mutex, std::try_to_lock);
    if (!lock.owns_lock()) continue;
    if (entry->session == nullptr) continue;          // already evicted
    if (entry->refit.valid()) continue;  // fit in flight — not idle
    // entry->mutex stays held across the write: the eviction image and
    // session teardown must be atomic to other users of the entry. Its
    // stamp is the newest, so any still-pending deferred commit is dropped
    // and cannot clobber this final image after the session is gone.
    // pwu-lint: blocking-ok(eviction write-then-free must be atomic; the entry is idle by try_lock and nobody can be waiting on ckpt_write_mutex with entry.mutex held)
    commit_checkpoint(*entry, stamp_image(*entry, auto_path(policy.dir, name)));
    entry->tells_since_checkpoint = 0;
    // A deferred fit is captured by the session's refit_due flag inside
    // the checkpoint; it replays after the lazy resume.
    entry->refit_deferred = false;
    entry->session.reset();
    entry->last_good.reset();
    entry->evicted.store(true, std::memory_order_relaxed);
    entry->footprint.store(0, std::memory_order_relaxed);
    budget_.charge(name, 0);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SessionManager::drain() {
  std::string dir;
  bool auto_enabled = false;
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> entries;
  {
    std::lock_guard lock(registry_mutex_);
    dir = auto_checkpoint_dir_;
    auto_enabled = auto_checkpoint_every_ != 0;
    entries.reserve(sessions_.size());
    for (const auto& [name, entry] : sessions_) entries.emplace_back(name, entry);
  }
  for (const auto& [name, entry] : entries) {
    std::lock_guard entry_lock(entry->mutex);
    try {
      join_refit(*entry);
    } catch (...) {
      // A cancelled or failed refit must not abort the shutdown barrier:
      // the fit stays recorded as due inside the session, so the final
      // checkpoint replays it on resume.
    }
    if (entry->session == nullptr) continue;  // evicted: already on disk
    if (auto_enabled) {
      // Final shutdown image: held under entry->mutex so no tell can
      // interleave, stamped so a straggling deferred commit is dropped.
      // pwu-lint: blocking-ok(shutdown barrier; the final image must supersede any in-flight deferred commit)
      commit_checkpoint(*entry, stamp_image(*entry, auto_path(dir, name)));
      entry->tells_since_checkpoint = 0;
    }
  }
}

SessionStatus SessionManager::resume(const std::string& name,
                                     std::istream& is) {
  validate_session_name(name, "SessionManager::resume");
  shed_at_session_cap(size());
  ParsedCheckpoint parsed = parse_checkpoint(is, workers_);
  return install(name, std::move(parsed.session), std::move(parsed.spec),
                 parsed.measure_seed, "SessionManager::resume");
}

std::size_t SessionManager::size() const {
  std::lock_guard lock(registry_mutex_);
  return sessions_.size();
}

void SessionManager::mark_shadow(const std::string& name, bool shadow) {
  find(name)->shadow.store(shadow, std::memory_order_relaxed);
}

bool SessionManager::is_shadow(const std::string& name) const {
  return find(name)->shadow.load(std::memory_order_relaxed);
}

std::string SessionManager::export_image(const std::string& name) const {
  std::ostringstream image;
  checkpoint(name, image);
  return image.str();
}

void SessionManager::import_append(const std::string& name,
                                   const std::string& chunk) {
  validate_session_name(name, "SessionManager::import_append");
  std::lock_guard lock(registry_mutex_);
  import_staging_[name] += chunk;
}

SessionStatus SessionManager::import_commit(const std::string& name,
                                            bool shadow) {
  std::string image;
  {
    std::lock_guard lock(registry_mutex_);
    const auto it = import_staging_.find(name);
    if (it == import_staging_.end()) {
      throw std::invalid_argument(
          "SessionManager::import_commit: no staged image for '" + name +
          "'");
    }
    image = std::move(it->second);
    import_staging_.erase(it);
  }
  // The staged bytes have been consumed but no session installed yet —
  // dying here must leave the source copy authoritative (the migration
  // coordinator aborts and keeps the old home).
  util::killpoint("session_manager.import.commit");
  std::istringstream is(image);
  SessionStatus status = resume(name, is);
  if (shadow) mark_shadow(name, true);
  return status;
}

void SessionManager::import_abort(const std::string& name) {
  std::lock_guard lock(registry_mutex_);
  import_staging_.erase(name);
}

}  // namespace pwu::service
