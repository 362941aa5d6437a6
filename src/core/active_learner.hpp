// Algorithm 1 (paper Section II-A): pool-based active learning around a
// random-forest surrogate.
//
//   1. cold start: evaluate n_init uniform picks, fit the forest
//   2. loop until |train| = n_max:
//        strategy selects n_batch pool configs from (mu, sigma)
//        evaluate them, append to the training set, refit from scratch
//
// After every `eval_every`-th iteration the learner scores the model on the
// held-out test set (top-alpha RMSE per requested alpha, plus full RMSE)
// and records the cumulative labeling cost — the raw series behind every
// figure in the paper.

#pragma once

#include <functional>
#include <vector>

#include "core/metrics.hpp"
#include "core/sampling_strategy.hpp"
#include "core/surrogate.hpp"
#include "rf/random_forest.hpp"
#include "sim/executor.hpp"
#include "space/pool.hpp"
#include "util/thread_pool.hpp"

namespace pwu::core {

/// How the learner reacts to failed measurements (sim::FailureKind).
/// Transient failures (crashes) are retried with capped exponential
/// backoff whose wait is charged to cumulative cost — a real tuner blocks
/// on the re-run; deterministic failures (compile errors, timeouts) and
/// exhausted retries enter a persisted failed-config set that is never
/// proposed again.
struct FailurePolicy {
  /// Transient retries per candidate before it is dropped as failed.
  std::size_t max_retries = 3;
  /// First retry waits this long (simulated seconds, charged to CC)...
  double backoff_base_seconds = 0.5;
  /// ...doubling per attempt up to this cap.
  double backoff_cap_seconds = 8.0;

  /// Deterministic backoff charge for the attempt-th retry (1-based).
  double backoff_seconds(std::size_t attempt) const;
};

struct LearnerConfig {
  std::size_t n_init = 10;   // paper Section III-D
  std::size_t n_batch = 1;   // paper Section III-D
  std::size_t n_max = 500;   // paper Section III-D
  /// Surrogate family: "rf" (the paper's model) or "gp" (the Section II-B
  /// alternative, for comparison).
  std::string surrogate = "rf";
  rf::ForestConfig forest;
  gp::GpConfig gp;
  std::vector<double> eval_alphas = {0.05};
  std::size_t eval_every = 1;
  /// Repetitions averaged per measurement (paper: 35 for kernels); the
  /// *averaged* label feeds both training and CC, matching the paper.
  int measure_repetitions = 1;
  FailurePolicy failure;
};

struct IterationRecord {
  std::size_t num_samples = 0;
  double cumulative_cost = 0.0;
  /// One entry per LearnerConfig::eval_alphas.
  std::vector<double> top_alpha_rmse;
  double full_rmse = 0.0;
};

/// One selected sample with the prediction it was selected under —
/// the raw data of the paper's Fig. 9 scatter.
struct SelectionRecord {
  std::size_t iteration = 0;
  double predicted_mean = 0.0;
  double predicted_stddev = 0.0;
  double measured = 0.0;
};

struct LearnerResult {
  std::vector<IterationRecord> trace;
  std::vector<SelectionRecord> selections;
  /// Final trained surrogate (shared so results are copyable).
  std::shared_ptr<Surrogate> model;
  std::vector<space::Configuration> train_configs;
  std::vector<double> train_labels;
  /// Failure accounting (run_with_executor only; zero otherwise).
  std::size_t failed_configs = 0;
  std::size_t transient_retries = 0;
  double failure_cost = 0.0;
};

class ActiveLearner {
 public:
  ActiveLearner(const workloads::Workload& workload, LearnerConfig config);

  /// Runs Algorithm 1. `pool` is consumed conceptually (copied internally);
  /// `test` must outlive the call. The result trace has one entry per
  /// evaluation point (cold start + every eval_every-th iteration + final).
  LearnerResult run(const SamplingStrategy& strategy,
                    std::vector<space::Configuration> pool,
                    const TestSet& test, util::Rng& rng,
                    util::ThreadPool* thread_pool = nullptr) const;

  /// Warm-started variant (the paper's Section VI future work: avoid
  /// building models from scratch for a related kernel/platform).
  /// `warm_start` rows seed the training set before the cold start; their
  /// labels came from the *source* task, so they contribute no target
  /// cumulative cost and do not count toward n_max. Feature schema must
  /// match the workload's space.
  LearnerResult run_warm(const SamplingStrategy& strategy,
                         std::vector<space::Configuration> pool,
                         const TestSet& test, const rf::Dataset& warm_start,
                         util::Rng& rng,
                         util::ThreadPool* thread_pool = nullptr) const;

  /// Failure-aware variant: measurements go through `executor` (typically
  /// carrying a sim::FaultModel) and failed ones follow config().failure —
  /// transient crashes are retried with backoff, deterministic failures are
  /// dropped into the session's failed set, and censored labels never reach
  /// the training set. With an all-healthy executor this is label-for-label
  /// identical to run() when executor.repetitions() ==
  /// config().measure_repetitions.
  LearnerResult run_with_executor(const SamplingStrategy& strategy,
                                  std::vector<space::Configuration> pool,
                                  const TestSet& test, sim::Executor& executor,
                                  util::Rng& rng,
                                  util::ThreadPool* thread_pool = nullptr) const;

  const LearnerConfig& config() const { return config_; }

 private:
  /// The one learner loop behind run, run_warm and run_with_executor.
  LearnerResult drive(const SamplingStrategy& strategy,
                      std::vector<space::Configuration> pool,
                      const TestSet& test, const rf::Dataset* warm_start,
                      sim::Executor& executor, util::Rng& rng,
                      util::ThreadPool* thread_pool) const;

  const workloads::Workload& workload_;
  LearnerConfig config_;
};

}  // namespace pwu::core
