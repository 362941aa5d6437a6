#include "core/active_learner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "service/ask_tell_session.hpp"
#include "util/contracts.hpp"

namespace pwu::core {

double FailurePolicy::backoff_seconds(std::size_t attempt) const {
  if (attempt == 0) return 0.0;
  // base * 2^(attempt-1), capped. Computed multiplicatively so large
  // attempt counts saturate at the cap instead of overflowing.
  double wait = backoff_base_seconds;
  for (std::size_t i = 1; i < attempt && wait < backoff_cap_seconds; ++i) {
    wait *= 2.0;
  }
  return std::min(wait, backoff_cap_seconds);
}

ActiveLearner::ActiveLearner(const workloads::Workload& workload,
                             LearnerConfig config)
    : workload_(workload), config_(std::move(config)) {
  if (config_.n_init == 0) {
    throw std::invalid_argument("ActiveLearner: n_init must be > 0");
  }
  if (config_.n_batch == 0) {
    throw std::invalid_argument("ActiveLearner: n_batch must be > 0");
  }
  if (config_.n_max < config_.n_init) {
    throw std::invalid_argument("ActiveLearner: n_max must be >= n_init");
  }
  if (config_.eval_every == 0) {
    throw std::invalid_argument("ActiveLearner: eval_every must be > 0");
  }
}

LearnerResult ActiveLearner::run(const SamplingStrategy& strategy,
                                 std::vector<space::Configuration> pool_configs,
                                 const TestSet& test, util::Rng& rng,
                                 util::ThreadPool* thread_pool) const {
  // With no fault model the executor makes the same draws and the same
  // division as Workload::measure, so this is the plain Algorithm-1 run.
  sim::Executor executor(config_.measure_repetitions);
  return drive(strategy, std::move(pool_configs), test, nullptr, executor, rng,
               thread_pool);
}

LearnerResult ActiveLearner::run_warm(
    const SamplingStrategy& strategy,
    std::vector<space::Configuration> pool_configs, const TestSet& test,
    const rf::Dataset& warm_start, util::Rng& rng,
    util::ThreadPool* thread_pool) const {
  if (warm_start.num_features() != workload_.space().num_params()) {
    throw std::invalid_argument(
        "ActiveLearner::run_warm: warm-start feature schema mismatch");
  }
  sim::Executor executor(config_.measure_repetitions);
  return drive(strategy, std::move(pool_configs), test, &warm_start, executor,
               rng, thread_pool);
}

LearnerResult ActiveLearner::run_with_executor(
    const SamplingStrategy& strategy,
    std::vector<space::Configuration> pool_configs, const TestSet& test,
    sim::Executor& executor, util::Rng& rng,
    util::ThreadPool* thread_pool) const {
  return drive(strategy, std::move(pool_configs), test, nullptr, executor, rng,
               thread_pool);
}

// Algorithm 1 over service::AskTellSession — the single loop shared with
// the tuning service. This side owns what a service client would: the
// measurement callback, the held-out evaluation, and the trace.
// Every measurement goes through the executor and can fail: transient
// failures are re-measured after the rest of the batch (still in ask
// order); deterministic ones drop into the session's failed set. The
// evaluation record is skipped while no surrogate exists yet — possible
// when failures stretch the cold start across several top-up batches.
LearnerResult ActiveLearner::drive(
    const SamplingStrategy& strategy,
    std::vector<space::Configuration> pool_configs, const TestSet& test,
    const rf::Dataset* warm_start, sim::Executor& executor,
    util::Rng& rng PWU_RNG_STREAM(run), util::ThreadPool* thread_pool) const {
  if (pool_configs.size() < config_.n_init) {
    throw std::invalid_argument("ActiveLearner: pool smaller than n_init");
  }

  // Two independent streams derived from the caller's rng, in the same
  // order the service derives them from one seed: the session stream
  // (sampling, strategy tie-breaks, forest fits) and the measurement
  // stream (the client side of ask/tell). This is what makes a service
  // session and a batch run with the same seed produce identical training
  // sets (see tests/test_ask_tell.cpp).
  const std::uint64_t session_seed = rng.next_u64();
  util::Rng measure_rng(rng.next_u64());

  service::AskTellSession session(workload_.space(), strategy, config_,
                                  std::move(pool_configs), warm_start,
                                  session_seed, thread_pool);

  LearnerResult result;
  auto measure_batch = [&](std::vector<service::Candidate> batch) {
    while (!batch.empty()) {
      std::vector<service::Candidate> retry;
      for (const auto& candidate : batch) {
        const sim::MeasurementResult measured =
            executor.measure(workload_, candidate.config, measure_rng);
        if (measured.ok()) {
          session.tell(candidate.config, measured.time);
          continue;
        }
        const service::FailureOutcome outcome = session.tell_failure(
            candidate.config, measured.status, measured.cost);
        if (outcome.action == service::FailureAction::Retry) {
          retry.push_back(candidate);
        }
      }
      batch = std::move(retry);
    }
    session.refit();
  };
  auto record = [&]() {
    if (session.model() == nullptr) return;
    IterationRecord rec;
    rec.num_samples = session.num_labeled();
    rec.cumulative_cost = session.cumulative_cost();
    rec.top_alpha_rmse.reserve(config_.eval_alphas.size());
    const Surrogate& model = *session.model();
    for (double alpha : config_.eval_alphas) {
      rec.top_alpha_rmse.push_back(top_alpha_rmse(model, test, alpha));
    }
    rec.full_rmse = full_rmse(model, test);
    result.trace.push_back(std::move(rec));
  };

  // Cold start (Algorithm 1, lines 1-4), then one record.
  measure_batch(session.ask());
  record();

  // Iteration phase (Algorithm 1, lines 5-9).
  while (!session.done()) {
    measure_batch(session.ask());
    const bool should_eval =
        session.iteration() % config_.eval_every == 0 || session.done();
    if (should_eval) record();
  }

  result.selections = session.selections();
  result.train_configs = session.train_configs();
  result.train_labels = session.train_labels();
  result.model = session.model();
  result.failed_configs = session.failed().size();
  result.transient_retries = session.transient_retries();
  result.failure_cost = session.failure_cost();
  return result;
}

}  // namespace pwu::core
