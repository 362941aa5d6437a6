// Bagged ensemble of regression trees with predictive uncertainty.
//
// Following Hutter et al. ("Algorithm runtime prediction: Methods &
// evaluation", AIJ 2014) — the paper's reference [14] — the forest's point
// prediction is the mean over trees and the predictive uncertainty is the
// spread (variance) of the per-tree predictions. That uncertainty drives
// every sampling strategy in core/.
//
// After fit/load the ensemble is compiled into a FlatForest — 8-byte
// rank-coded nodes in one breadth-first array — and every prediction entry
// point walks it: single rows through its scalar kernel tier, row blocks
// (pool scoring, permutation importance, the OOB pass) through its block
// evaluator. A forest the compiled layout cannot hold (past its 16-bit
// capacity, or with a feature split both ways) keeps predicting,
// bit-identically, through the trees' own walk. The original
// node tables are kept for serialization and structural queries;
// predict_stats_reference() walks them directly and exists to pin the
// compiled engine's bit-exactness in tests.

#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "rf/dataset.hpp"
#include "rf/decision_tree.hpp"
#include "rf/feature_matrix.hpp"
#include "rf/flat_forest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"

namespace pwu::rf {

struct PredictionStats {
  double mean = 0.0;
  double variance = 0.0;  // across trees (population variance)
  double stddev = 0.0;
};

struct ForestConfig {
  std::size_t num_trees = 50;
  TreeConfig tree;
  /// Bootstrap resampling (bagging). When false every tree sees the full
  /// training set and only the feature subspace differs.
  bool bootstrap = true;
  /// Track per-sample out-of-bag predictions during fit.
  bool compute_oob = false;
};

class RandomForest {
 public:
  /// Fits `config.num_trees` trees. Tree construction is deterministic given
  /// `rng`'s state: per-tree child streams are forked up front, so results
  /// are identical whether trees are built serially or on `pool`'s workers.
  /// `cancel` is polled between trees; a requested cancellation throws
  /// util::Cancelled and leaves the forest in an unfitted (discardable)
  /// state — callers that need the previous model must fit a fresh instance.
  void fit(const Dataset& data, const ForestConfig& config, util::Rng& rng,
           util::ThreadPool* pool = nullptr,
           const util::CancelToken* cancel = nullptr);

  bool fitted() const { return !trees_.empty(); }
  std::size_t num_trees() const { return trees_.size(); }
  const ForestConfig& config() const { return config_; }

  /// Ensemble mean prediction.
  double predict(std::span<const double> row) const;

  /// Mean and across-tree spread for one row.
  PredictionStats predict_stats(std::span<const double> row) const;

  /// predict_stats computed by walking the original tree node tables — the
  /// slow reference implementation the compiled engine must match
  /// bit-for-bit.
  PredictionStats predict_stats_reference(std::span<const double> row) const;

  /// Batched predict_stats over a contiguous row matrix, optionally
  /// parallel. Bit-identical to calling predict_stats row by row.
  std::vector<PredictionStats> predict_stats_batch(
      const FeatureMatrix& rows, util::ThreadPool* pool = nullptr) const;

  /// The compiled evaluation layout. Empty when the forest exceeds its
  /// capacity; prediction then walks the trees.
  const FlatForest& flat() const { return flat_; }

  /// Out-of-bag RMSE (requires compute_oob at fit time; NaN when no sample
  /// ended up out of bag, e.g. a 1-tree forest without bootstrap).
  double oob_rmse() const;

  /// Mean-squared-error increase per feature when that feature's column is
  /// permuted in `reference` — a model-agnostic importance measure.
  std::vector<double> permutation_importance(
      const Dataset& reference, util::Rng& rng,
      util::ThreadPool* pool = nullptr) const;

  /// Structural statistics (for tests/diagnostics).
  std::size_t total_nodes() const;
  std::size_t max_depth() const;

  /// Resident heap footprint: original node tables plus the compiled layout.
  std::size_t memory_bytes() const;

  /// Serializes the fitted ensemble as text (trees + the structural bits of
  /// the config). Predictions round-trip exactly through save/load; OOB
  /// state is not persisted.
  void save(std::ostream& os) const;
  void load(std::istream& is);
  /// File-path convenience wrappers; throw std::runtime_error on IO errors.
  void save_file(const std::string& path) const;
  static RandomForest load_file(const std::string& path);

 private:
  /// Calls visit(begin, end, leaves) for every block of at most
  /// FlatForest::kRowBlock rows of a row-major matrix (row r starts at
  /// rows + r * stride), where leaves[t * (end - begin) + (r - begin)] is
  /// tree t's leaf value for row r. Blocks run on `pool` when it has more
  /// than one thread and there is more than one block; visit then runs
  /// concurrently on disjoint blocks.
  template <typename Visit>
  void for_each_block(const double* rows, std::size_t stride, std::size_t n,
                      util::ThreadPool* pool, Visit&& visit) const;

  std::vector<DecisionTree> trees_;
  FlatForest flat_;
  ForestConfig config_;
  double oob_rmse_ = 0.0;
  bool has_oob_ = false;
};

}  // namespace pwu::rf
