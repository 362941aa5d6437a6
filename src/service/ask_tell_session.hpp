// Inverted-control form of Algorithm 1 (the ask/tell pattern of
// sequential model-based optimization services).
//
// The batch loop in core::ActiveLearner owns the measurement callback; a
// tuning *service* cannot — the expensive run happens on the client's
// machine. AskTellSession turns the loop inside out:
//
//   ask()  -> the next batch of candidate configurations to measure
//             (cold-start picks first, then strategy selections with the
//             surrogate's predicted mu/sigma attached)
//   tell() -> hands one measured label back; when the outstanding batch is
//             complete the surrogate refit becomes due
//
// core::ActiveLearner::run is a thin driver over this class, so the batch
// benches and the service share one Algorithm-1 implementation. The whole
// dynamic state (training set, candidate pool, RNG, pending asks, history)
// serializes through save()/restore(), so a server restart loses no labels
// and — for the random-forest surrogate, whose trees round-trip exactly —
// the resumed session continues bit-identically.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/active_learner.hpp"
#include "core/sampling_strategy.hpp"
#include "core/surrogate.hpp"
#include "sim/fault_model.hpp"
#include "space/configuration.hpp"
#include "space/parameter_space.hpp"
#include "space/pool.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"

namespace pwu::service {

/// Strategy-by-name (core::make_strategy) — the serializable form a
/// checkpoint can reconstruct.
struct StrategySpec {
  std::string name = "pwu";
  double alpha = 0.05;
};

/// One configuration handed out by ask(). Cold-start candidates carry no
/// prediction (has_prediction = false); strategy selections carry the
/// mu/sigma they were selected under (the paper's Fig. 9 raw data).
struct Candidate {
  space::Configuration config;
  bool has_prediction = false;
  double predicted_mean = 0.0;
  double predicted_stddev = 0.0;
  /// 0 = cold start, then 1, 2, ... per strategy batch.
  std::size_t iteration = 0;
  /// Failed measurement attempts reported via tell_failure so far.
  std::size_t failures = 0;
};

/// What the session decided about a failed measurement.
enum class FailureAction {
  Retry,    // transient: candidate stays outstanding, re-measure it
  Dropped,  // deterministic or retries exhausted: entered the failed set
};

struct FailureOutcome {
  FailureAction action = FailureAction::Dropped;
  /// Failed attempts for this candidate so far (including this one).
  std::size_t attempts = 0;
  /// Simulated wait charged to cumulative cost before the retry (0 when
  /// Dropped).
  double backoff_seconds = 0.0;
  /// True when this failure drained the batch (a refit may now be due).
  bool batch_complete = false;
};

/// A configuration the session gave up on. Never re-proposed; excluded
/// from best-performance tracking; persisted across checkpoint/resume.
struct FailedConfig {
  space::Configuration config;
  sim::FailureKind kind = sim::FailureKind::Crash;
  std::size_t attempts = 1;
};

/// A right-censored observation (the run exceeded `lower_bound` seconds —
/// a timeout). Kept out of the RF training set: tree surrogates treat any
/// stand-in value as a real label and skew both the model and uncertainty
/// estimates, so censored points are recorded but never trained on.
struct CensoredObservation {
  space::Configuration config;
  double lower_bound = 0.0;
};

/// ask() split at the pool scoring pass, so a caller can run (and time)
/// the scoring itself. plan_ask() runs everything up to — but not
/// including — that pass; when `needs_scores` is set the caller computes
/// exactly what ask() would have computed inline
/// (model()->predict_stats_batch over pool_features(), bit for bit) and
/// hands the stats to finish_ask(), which runs the strategy selection on
/// the session's own rng stream. ask() itself is plan_ask + inline scoring
/// + finish_ask, so the split and whole paths cannot drift.
struct AskPlan {
  /// False: `candidates` already holds the complete answer (the session is
  /// done, or cold start — neither consults the surrogate). True: score
  /// the pool, then call finish_ask().
  bool needs_scores = false;
  std::vector<Candidate> candidates;
  /// Clamped batch size the strategy will be asked for.
  std::size_t batch = 0;
};

enum class SessionPhase {
  ColdStart,      // nothing asked yet; next ask() returns the n_init picks
  AwaitingTells,  // an ask() batch is outstanding
  Ready,          // fitted, budget remaining, no outstanding batch
  Done,           // n_max reached or pool exhausted
};

const char* to_string(SessionPhase phase);

class AskTellSession {
 public:
  /// Owning-strategy form (the service path). The strategy is built from
  /// `spec` via core::make_strategy, and the session is checkpointable.
  AskTellSession(const space::ParameterSpace& space, StrategySpec spec,
                 core::LearnerConfig config,
                 std::vector<space::Configuration> pool, std::uint64_t seed,
                 util::ThreadPool* workers = nullptr);

  /// Non-owning form (the ActiveLearner driver path): `strategy` must
  /// outlive the session. `warm_start` optionally seeds the training set
  /// with free source-task rows (they count toward neither budget nor
  /// cost). save() is unavailable — an externally owned strategy cannot be
  /// reconstructed from a checkpoint.
  AskTellSession(const space::ParameterSpace& space,
                 const core::SamplingStrategy& strategy,
                 core::LearnerConfig config,
                 std::vector<space::Configuration> pool,
                 const rf::Dataset* warm_start, std::uint64_t seed,
                 util::ThreadPool* workers = nullptr);

  AskTellSession(AskTellSession&&) = default;
  AskTellSession& operator=(AskTellSession&&) = default;

  /// Next batch to measure. `n` requests a batch size (clamped to the
  /// remaining budget and pool; 0 = the configured default: n_init during
  /// cold start, n_batch afterwards). Returns an empty vector when done.
  /// Throws std::logic_error while a previous batch is still outstanding.
  /// Performs any due refit first.
  std::vector<Candidate> ask(std::size_t n = 0);

  /// First half of ask(): identical admission, refit, cold start, and
  /// iteration accounting, stopping where ask() would score the pool. See
  /// AskPlan. Throws exactly where ask() throws.
  AskPlan plan_ask(std::size_t n = 0);

  /// Second half of ask(): `stats` must be the surrogate's prediction for
  /// every current pool row (stats[i] scores pool_features().row(i)),
  /// bit-identical to model()->predict_stats_batch.
  std::vector<Candidate> finish_ask(const AskPlan& plan,
                                    const std::vector<rf::PredictionStats>& stats);

  /// Encoded pool rows (row i = features of the i-th remaining candidate)
  /// — what a caller scores between plan_ask and finish_ask.
  const rf::FeatureMatrix& pool_features() const { return pool_features_; }

  /// Deadline-expired form of ask(): answers *now*, without the due refit.
  /// When `stale` is a fitted surrogate (the caller's last-good snapshot)
  /// the pool is scored with it — serially, since the worker pool is busy
  /// with the refit being degraded around; otherwise the batch is drawn
  /// uniformly from the pool. Either way selection consumes the dedicated
  /// degraded rng stream, never rng_, so a later non-degraded ask of an
  /// *undisturbed* session replays bit-identically. Deliberately does not
  /// touch model_ or train_: it is safe to call while a refit for this
  /// session is running on another thread.
  std::vector<Candidate> ask_degraded(std::size_t n,
                                      const core::Surrogate* stale);

  /// Reports the measured execution time of an outstanding candidate
  /// (matched by configuration; any order within the batch is accepted,
  /// though replaying tells in ask order is what reproduces the batch
  /// driver bit-for-bit). Returns true when this tell completed the batch,
  /// i.e. a refit is now due. Throws std::invalid_argument for a
  /// configuration that is not outstanding.
  bool tell(const space::Configuration& config, double measured_time);

  /// Reports a *failed* measurement of an outstanding candidate.
  /// `cost_seconds` is the simulated wall-clock the failed attempt burned
  /// (crashed partial run, harness timeout) and is charged to cumulative
  /// cost. Transient kinds (Crash) are retried — the candidate stays
  /// outstanding and a capped exponential backoff wait is charged — until
  /// config().failure.max_retries is exhausted; deterministic kinds
  /// (CompileError, Timeout) drop the candidate into the failed set
  /// immediately. Timeouts additionally record a censored observation.
  /// No failure path ever writes a label into the training set. Throws
  /// std::invalid_argument for unknown candidates or kind == None.
  FailureOutcome tell_failure(const space::Configuration& config,
                              sim::FailureKind kind,
                              double cost_seconds = 0.0);

  /// (Re)fits the surrogate if a completed batch made it due. Kept separate
  /// from tell() so a session manager can run it on a worker thread;
  /// ask() calls it implicitly. Returns true when a fit ran. `cancel` is
  /// polled between forest trees: a cancelled refit throws util::Cancelled,
  /// keeps the previous model_, rolls rng_ back to its pre-fit state (so a
  /// retried fit replays identically), and leaves the refit due.
  bool refit(const util::CancelToken* cancel = nullptr);

  bool refit_due() const { return refit_due_; }

  /// True once the target budget n_max is labeled or the pool is exhausted
  /// (and no tells are outstanding).
  bool done() const;

  SessionPhase phase() const;

  // ---- observers ----
  std::size_t pending_count() const { return pending_.size(); }
  /// Target samples labeled so far (excludes warm-start rows).
  std::size_t num_labeled() const { return train_labels_.size(); }
  std::size_t iteration() const { return iteration_; }
  std::size_t pool_remaining() const { return pool_.size(); }
  double cumulative_cost() const { return cumulative_cost_; }
  /// Smallest measured time so far; NaN before the first tell. Failed and
  /// censored configurations never participate.
  double best_observed() const;

  // ---- failure observers ----
  const std::vector<FailedConfig>& failed() const { return failed_; }
  const std::vector<CensoredObservation>& censored() const {
    return censored_;
  }
  bool is_failed(const space::Configuration& config) const {
    return failed_lookup_.count(config) != 0;
  }
  /// Portion of cumulative_cost() spent on failed attempts and backoff.
  double failure_cost() const { return failure_cost_; }
  /// Transient retries granted across the whole session.
  std::size_t transient_retries() const { return transient_retries_; }

  // ---- degraded-ask observers ----
  /// Asks answered from a stale last-good model snapshot.
  std::size_t degraded_stale_asks() const { return degraded_stale_asks_; }
  /// Asks answered with seeded-random picks (no model available).
  std::size_t degraded_random_asks() const { return degraded_random_asks_; }

  /// Approximate resident heap footprint of the session's dynamic state
  /// (model, encoded pool, training set, histories) — what a
  /// util::ResourceBudget charges per session.
  std::size_t memory_bytes() const;

  const space::ParameterSpace& space() const { return space_; }
  const core::LearnerConfig& config() const { return config_; }
  /// Strategy spec for owned strategies; nullopt for the non-owning form.
  const std::optional<StrategySpec>& strategy_spec() const { return spec_; }
  const rf::Dataset& train() const { return train_; }
  const std::vector<space::Configuration>& train_configs() const {
    return train_configs_;
  }
  const std::vector<double>& train_labels() const { return train_labels_; }
  const std::vector<core::SelectionRecord>& selections() const {
    return selections_;
  }
  /// Fitted surrogate (nullptr-fitted only before the cold start
  /// completes). Shared so LearnerResult can carry it beyond the session.
  std::shared_ptr<core::Surrogate> model() const { return model_; }

  /// Serializes the complete dynamic state (strategy spec, learner config,
  /// rng, training set, remaining pool, pending asks, history, fitted
  /// model). Throws std::logic_error for sessions built around an
  /// externally owned strategy.
  void save(std::ostream& os) const;

  /// Rebuilds a session from a save() stream. `space` must be the space
  /// the checkpoint was taken against (the feature schema is validated).
  static AskTellSession restore(const space::ParameterSpace& space,
                                std::istream& is,
                                util::ThreadPool* workers = nullptr);

 private:
  AskTellSession(const space::ParameterSpace& space,
                 core::LearnerConfig config,
                 std::vector<space::Configuration> pool, std::uint64_t seed,
                 util::ThreadPool* workers);

  /// Strategy batch size for a requested count (0 = n_batch), clamped to
  /// the remaining budget and pool.
  std::size_t batch_size(std::size_t n) const;
  /// Runs the strategy over scored pool rows (stats[i] scores pool row i)
  /// on `rng` — rng_ for fresh asks, degraded_rng_ for degraded ones.
  /// Throws std::logic_error when the strategy returns an empty batch.
  std::vector<std::size_t> select_batch(
      const std::vector<rf::PredictionStats>& stats, std::size_t batch,
      util::Rng& rng) const;
  /// Moves the pool rows at `indices` (de-duplicated) into pending_, tagged
  /// with `iteration` and, when `stats` is given, the prediction each row
  /// was scored with. Keeps pool_ and pool_features_ index-aligned.
  void take_pending(std::vector<std::size_t> indices,
                    const std::vector<rf::PredictionStats>* stats,
                    std::size_t iteration);
  /// The outstanding candidate for `config`; throws std::invalid_argument
  /// prefixed with `who` when there is none.
  std::vector<Candidate>::iterator find_pending(
      const space::Configuration& config, const char* who);
  void append_label(const Candidate& candidate, double measured_time);
  /// Batch-completion bookkeeping shared by tell and tell_failure: decides
  /// cold-start completion (with failure top-up) and whether a refit is due
  /// (only when the drained batch added labels).
  void on_batch_drained();
  void add_failed(FailedConfig failed);
  void fit_model(const util::CancelToken* cancel);
  /// Re-encodes every pool configuration into pool_features_ (row i =
  /// features of pool_.at(i)).
  void rebuild_pool_features();

  space::ParameterSpace space_;
  core::LearnerConfig config_;
  std::optional<StrategySpec> spec_;      // set <=> strategy is owned
  core::StrategyPtr owned_strategy_;
  const core::SamplingStrategy* strategy_ = nullptr;
  util::ThreadPool* workers_ = nullptr;

  space::CandidatePool pool_;
  /// Encoded pool rows, index-aligned with pool_ across every swap-with-last
  /// removal — the batch the surrogate scores each iteration, encoded once
  /// per session instead of once per iteration.
  rf::FeatureMatrix pool_features_;
  rf::Dataset train_;
  std::size_t warm_rows_ = 0;
  std::vector<space::Configuration> train_configs_;
  std::vector<double> train_labels_;
  std::vector<core::SelectionRecord> selections_;
  std::vector<Candidate> pending_;
  std::vector<FailedConfig> failed_;
  std::unordered_set<space::Configuration, space::ConfigurationHash>
      failed_lookup_;
  std::vector<CensoredObservation> censored_;
  std::shared_ptr<core::Surrogate> model_;
  util::Rng rng_;
  /// Separate stream for degraded asks so they never perturb rng_ (the
  /// replayable Algorithm-1 stream) — and can run while a refit owns rng_.
  util::Rng degraded_rng_;
  std::size_t degraded_stale_asks_ = 0;
  std::size_t degraded_random_asks_ = 0;
  std::size_t iteration_ = 0;
  double cumulative_cost_ = 0.0;
  double failure_cost_ = 0.0;
  std::size_t transient_retries_ = 0;
  /// Labels added since the last completed batch — a drained batch only
  /// schedules a refit when this is non-zero (all-failed batches leave the
  /// training set, and therefore the model, unchanged).
  std::size_t labels_in_batch_ = 0;
  bool refit_due_ = false;
  bool cold_start_done_ = false;
};

}  // namespace pwu::service
