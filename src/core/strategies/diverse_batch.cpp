// Diversity-aware batch PWU (extension for n_batch > 1).
//
// Plain top-k PWU batches can be nearly identical configurations — the
// top of the score ranking often sits in one small region, and evaluating
// k near-duplicates before the next refit wastes most of the batch. This
// strategy keeps PWU's scoring but greedily trades score against distance
// from the already-selected batch (a k-center-style rule), which is how
// batch-mode active learning is usually repaired in practice.

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/sampling_strategy.hpp"

namespace pwu::core {

namespace {

class DiversePwuStrategy final : public SamplingStrategy {
 public:
  DiversePwuStrategy(double alpha, double diversity_weight)
      : alpha_(alpha),
        weight_(diversity_weight),
        name_("diverse-pwu(alpha=" + std::to_string(alpha) +
              ",w=" + std::to_string(diversity_weight) + ")") {
    if (diversity_weight < 0.0) {
      throw std::invalid_argument(
          "diverse-pwu: diversity weight must be >= 0");
    }
  }

  const std::string& name() const override { return name_; }

  std::vector<std::size_t> select(const PoolPrediction& prediction,
                                  std::size_t batch,
                                  util::Rng& /*rng*/) const override {
    const std::vector<double> scores = pwu_scores(prediction, alpha_);
    if (batch <= 1 || prediction.features == nullptr ||
        prediction.features->empty() || weight_ == 0.0) {
      return top_k_indices(scores, batch);
    }

    const rf::FeatureMatrix& features = *prediction.features;
    const std::size_t n = prediction.size();
    const std::size_t dims = features.num_cols();

    // Per-dimension min-max normalization so no feature dominates the
    // distance.
    std::vector<double> lo(dims, std::numeric_limits<double>::infinity());
    std::vector<double> hi(dims, -std::numeric_limits<double>::infinity());
    for (std::size_t r = 0; r < features.num_rows(); ++r) {
      const auto row = features.row(r);
      for (std::size_t d = 0; d < dims; ++d) {
        lo[d] = std::min(lo[d], row[d]);
        hi[d] = std::max(hi[d], row[d]);
      }
    }
    std::vector<double> inv_range(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      inv_range[d] = hi[d] > lo[d] ? 1.0 / (hi[d] - lo[d]) : 0.0;
    }
    auto distance = [&](std::size_t a, std::size_t b) {
      const auto row_a = features.row(a);
      const auto row_b = features.row(b);
      double sq = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        const double diff = (row_a[d] - row_b[d]) * inv_range[d];
        sq += diff * diff;
      }
      return std::sqrt(sq);
    };

    std::vector<std::size_t> picked;
    picked.reserve(batch);
    // Track each candidate's distance to the nearest picked point.
    std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
    const double diameter = std::sqrt(static_cast<double>(dims));

    // First pick: pure score.
    std::size_t first = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (scores[i] > scores[first]) first = i;
    }
    picked.push_back(first);

    while (picked.size() < std::min(batch, n)) {
      for (std::size_t i = 0; i < n; ++i) {
        nearest[i] = std::min(nearest[i], distance(i, picked.back()));
      }
      double best_value = -1.0;
      std::size_t best_idx = n;
      for (std::size_t i = 0; i < n; ++i) {
        if (nearest[i] == 0.0) continue;  // already picked (or duplicate)
        const double spread = std::min(nearest[i] / diameter, 1.0);
        const double value = scores[i] * std::pow(spread, weight_);
        if (value > best_value) {
          best_value = value;
          best_idx = i;
        }
      }
      if (best_idx == n) break;  // everything is a duplicate of the batch
      picked.push_back(best_idx);
    }
    // Degenerate pools (all duplicates): top up by plain ranking.
    if (picked.size() < std::min(batch, n)) {
      for (std::size_t idx : top_k_indices(scores, n)) {
        if (picked.size() >= std::min(batch, n)) break;
        if (std::find(picked.begin(), picked.end(), idx) == picked.end()) {
          picked.push_back(idx);
        }
      }
    }
    return picked;
  }

 private:
  double alpha_;
  double weight_;
  std::string name_;
};

}  // namespace

StrategyPtr make_diverse_pwu(double alpha, double diversity_weight) {
  return std::make_unique<DiversePwuStrategy>(alpha, diversity_weight);
}

}  // namespace pwu::core
