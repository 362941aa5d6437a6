// Flat batched inference engine for fitted tree ensembles.
//
// After fit/load, every tree's node table is compiled into one contiguous
// array of 16-byte nodes in breadth-first order. Batched prediction then
// runs in cache-blocked (row-block x tree) order: a tree's nodes stay
// resident in L1/L2 while a block of rows traverses it, instead of every
// row re-faulting every tree's 48-byte pointer-chased nodes. Evaluation is
// bit-exact with the tree-walk reference: the same routing decisions, the
// same leaf doubles, and per-row accumulation in the same tree order.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rf/decision_tree.hpp"
#include "rf/feature_matrix.hpp"
#include "util/thread_pool.hpp"

namespace pwu::rf {

struct PredictionStats {
  double mean = 0.0;
  double variance = 0.0;  // across trees (population variance)
  double stddev = 0.0;
};

/// One node of the flat evaluation layout. 16 bytes: the per-node split
/// gain and the separate right-child index of the build-time
/// DecisionTree::Node are dropped from the hot struct — breadth-first
/// layout places siblings adjacently, so right = left + 1.
struct FlatNode {
  /// Leaf: prediction. Numerical split: threshold. Categorical split: the
  /// 64-bit left-level mask, bit-cast (never interpreted as a double).
  double payload = 0.0;
  /// -1 for a leaf; otherwise the feature index, with kCategoricalFlag set
  /// for set-membership splits.
  std::int32_t feature = -1;
  /// Tree-local flat index of the left child (right child = left + 1).
  std::int32_t left = -1;

  static constexpr std::int32_t kCategoricalFlag = 1 << 30;
  static constexpr std::int32_t kFeatureMask = kCategoricalFlag - 1;
};
static_assert(sizeof(FlatNode) == 16, "FlatNode must stay 16 bytes");

class FlatForest {
 public:
  /// Compiles the fitted trees into the flat layout (replacing any previous
  /// contents).
  void build(std::span<const DecisionTree> trees);
  void clear();

  bool empty() const { return tree_offsets_.size() < 2; }
  std::size_t num_trees() const {
    return tree_offsets_.empty() ? 0 : tree_offsets_.size() - 1;
  }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Ensemble mean for one row.
  double predict_one(std::span<const double> row) const;

  /// Mean and across-tree spread for one row.
  PredictionStats predict_stats_one(std::span<const double> row) const;

  /// Per-tree predictions for one row (out.size() == num_trees()) — the
  /// building block for OOB-style masked aggregation.
  void predict_per_tree(std::span<const double> row,
                        std::span<double> out) const;

  /// Per-tree predictions for a block of rows, tree-major:
  /// out[t * n + r] is tree t's leaf value for rows[r]. Runs the same
  /// interleaved blocked order as the batch evaluators (out.size() must be
  /// num_trees() * n).
  void predict_per_tree_block(const double* const* rows, std::size_t n,
                              std::span<double> out) const;

  /// Resident heap footprint of the compiled layout.
  std::size_t memory_bytes() const {
    return nodes_.capacity() * sizeof(FlatNode) +
           tree_offsets_.capacity() * sizeof(std::uint32_t) +
           tree_categorical_.capacity() * sizeof(std::uint8_t);
  }

  /// Blocked batch evaluation; row blocks run on `pool` when provided.
  void predict_stats(const FeatureMatrix& rows, std::span<PredictionStats> out,
                     util::ThreadPool* pool = nullptr) const;
  void predict_mean(const FeatureMatrix& rows, std::span<double> out,
                    util::ThreadPool* pool = nullptr) const;

  /// Rows per cache block: 256 rows x 200 trees of scratch is 400 KB,
  /// inside L2, while one tree's nodes stream through L1; the wide block
  /// amortizes each tree's node-table sweep over enough rows to keep the
  /// SIMD kernels' gather chains fed (64 left them latency-bound on node
  /// refetches). Public so QuantizedForest blocks its rows the same way.
  static constexpr std::size_t kRowBlock = 256;

  /// Raw compiled layout (the QuantizedForest compaction pass reads it).
  std::span<const FlatNode> nodes() const { return nodes_; }
  std::span<const std::uint32_t> tree_offsets() const { return tree_offsets_; }

 private:
  void stats_block(const FeatureMatrix& rows, std::size_t begin,
                   std::size_t end, std::span<PredictionStats> out,
                   std::vector<double>& scratch) const;
  void mean_block(const FeatureMatrix& rows, std::size_t begin,
                  std::size_t end, std::span<double> out,
                  std::vector<double>& scratch) const;

  std::vector<FlatNode> nodes_;
  /// Tree t owns nodes_[tree_offsets_[t], tree_offsets_[t + 1]).
  std::vector<std::uint32_t> tree_offsets_;
  /// Trees containing categorical splits take the scalar set-membership
  /// walk in the batch evaluators; SIMD kernels only see numerical-only
  /// trees (rf/simd_eval.hpp).
  std::vector<std::uint8_t> tree_categorical_;
};

}  // namespace pwu::rf
