// Sampling strategies for Algorithm 1 (paper Section II-C).
//
// Every strategy sees the surrogate model's pool predictions — mean
// execution time mu_i (lower = higher performance) and uncertainty sigma_i
// (across-tree spread) — and picks a batch of pool indices to evaluate next:
//
//   PWU        s = sigma / mu^(1-alpha), take argmax          (Eq. 1, ours)
//   PBUS       restrict to the predicted-best q-fraction, then take the most
//              uncertain inside it (Balaprakash et al. 2013)
//   MaxU       take argmax sigma (classic uncertainty sampling)
//   BestPerf   take argmin mu (pure exploitation)
//   BRS        uniform among the predicted-best p-fraction
//   Uniform    uniform over the pool (passive learning)
//   eps-PWU    PWU with epsilon-uniform exploration (extension)

#pragma once

#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rf/feature_matrix.hpp"
#include "util/rng.hpp"

namespace pwu::core {

/// Surrogate predictions over the current candidate pool.
struct PoolPrediction {
  std::vector<double> mean;    // predicted execution time (seconds)
  std::vector<double> stddev;  // across-tree uncertainty
  /// Best (smallest) execution time measured so far — the incumbent that
  /// improvement-based acquisitions (EI) compare against. NaN when the
  /// caller does not track it; EI then treats the smallest predicted mean
  /// as the incumbent.
  double best_observed = std::numeric_limits<double>::quiet_NaN();
  /// Candidate feature rows (optional; set by the active learner), one per
  /// pool entry in one contiguous matrix. A non-owning view: the matrix
  /// must outlive select(). Diversity-aware batch strategies need them;
  /// plain strategies ignore them. Null or empty = unavailable.
  const rf::FeatureMatrix* features = nullptr;

  std::size_t size() const { return mean.size(); }
};

class SamplingStrategy {
 public:
  virtual ~SamplingStrategy() = default;

  virtual const std::string& name() const = 0;

  /// Selects `batch` distinct pool indices (batch is clamped to the pool
  /// size by the caller contract: prediction.size() >= batch >= 1).
  virtual std::vector<std::size_t> select(const PoolPrediction& prediction,
                                          std::size_t batch,
                                          util::Rng& rng) const = 0;
};

using StrategyPtr = std::unique_ptr<SamplingStrategy>;

// ---- factories ----

/// Performance-Weighted Uncertainty (Eq. 1). alpha in [0, 1]: the fraction
/// of the performance ranking considered high-performance; alpha -> 1
/// degenerates to MaxU, alpha -> 0 to the coefficient of variation.
StrategyPtr make_pwu(double alpha);

/// Performance-Biased Uncertainty Sampling: most-uncertain inside the
/// predicted-best `bias_fraction` of the pool.
StrategyPtr make_pbus(double bias_fraction = 0.10);

StrategyPtr make_max_uncertainty();
StrategyPtr make_best_performance();

/// Biased Random Sampling: uniform among the predicted-best `top_fraction`.
StrategyPtr make_biased_random(double top_fraction = 0.10);

StrategyPtr make_uniform_random();

/// Extension: PWU with probability-epsilon uniform exploration.
StrategyPtr make_epsilon_greedy_pwu(double alpha, double epsilon = 0.1);

/// Expected Improvement over the incumbent (Hutter et al.'s SMAC — the
/// paper's sequential-modeling related work [22]). A *tuning*-oriented
/// acquisition: maximizes E[max(best - Y, 0)] under Y ~ N(mu, sigma^2).
StrategyPtr make_expected_improvement();

/// Extension for batch mode (n_batch > 1): PWU scores with greedy
/// diversity — after the top-scored pick, each further pick maximizes
/// score * (normalized distance to the already-picked set)^diversity_weight
/// over min-max-normalized features, suppressing near-duplicate batches.
/// Falls back to plain PWU ranking when the pool prediction carries no
/// feature vectors or for batch size 1.
StrategyPtr make_diverse_pwu(double alpha, double diversity_weight = 1.0);

/// By-name construction used by benches/CLIs. Known names: pwu, pbus, maxu,
/// bestperf, brs, random, cv (= pwu with alpha 0), egreedy. `alpha` feeds
/// pwu/egreedy; the fraction knobs of pbus/brs keep their defaults.
StrategyPtr make_strategy(const std::string& name, double alpha = 0.05);

/// The paper's five compared methods plus the passive baseline.
std::vector<std::string> standard_strategy_names();

// ---- shared helpers ----

/// Indices of the k largest scores (ties broken by index; k clamped).
std::vector<std::size_t> top_k_indices(std::span<const double> scores,
                                       std::size_t k);

/// Indices of the k smallest values.
std::vector<std::size_t> bottom_k_indices(std::span<const double> values,
                                          std::size_t k);

/// The PWU score vector s = sigma / mu^(1-alpha) (Eq. 1), entry-wise, with
/// mu clamped to a small positive floor.
std::vector<double> pwu_scores(const PoolPrediction& prediction, double alpha);

/// Expected-improvement score vector against `incumbent` (smaller times
/// improve): EI_i = sigma_i * (z Phi(z) + phi(z)), z = (incumbent - mu_i) /
/// sigma_i; zero-uncertainty candidates get max(incumbent - mu, 0).
std::vector<double> ei_scores(const PoolPrediction& prediction,
                              double incumbent);

/// Standard normal CDF.
double normal_cdf(double z);

}  // namespace pwu::core
