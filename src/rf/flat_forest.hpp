// Compiled evaluation layout for fitted tree ensembles.
//
// build() compiles every tree's node table into one contiguous array of
// 8-byte RankNodes in breadth-first order (siblings are adjacent, so
// right = left + 1). Nodes hold no doubles:
//
//   - split thresholds are deduplicated into sorted per-feature codebooks
//     (laid out back-to-back in one table) and a numerical split stores a
//     16-bit code into them;
//   - categorical left-level masks live in a side table, referenced by the
//     same 16-bit code field;
//   - a leaf stores an index into the leaf-value table.
//
// Every row is walked on its rank slots, one 32-bit int per feature:
//
//   - numerical feature: the code of the first codebook entry >= the
//     row's value (one past the feature's codebook for NaN, which must
//     route right, as Split::goes_left does). Because each codebook is
//     sorted, `value <= thresholds[code]` is exactly `code >= rank`;
//   - categorical feature: the level Split::goes_left tests,
//     Split::level_of(value) in [0, 64], where 64 (no level) routes right.
//     A split goes left iff its mask has that level's bit.
//
// predict_block() computes a block's rank slots once per (row, feature),
// and every tree then walks the block on integer compares and mask-bit
// tests through the dispatched kernel (rf/simd_eval.hpp); a single row
// takes the same walk through the scalar tier.
//
// Exactness: codes index the original split doubles (a rank coding, not a
// snapping), categorical slots are the level goes_left computes, and
// leaves index the original leaf doubles, so every row reaches the same
// leaf as DecisionTree::predict and reads the same value.
//
// Capacity: feature indices and codes are 16-bit, and each feature has one
// rank slot, so it must be split one way. build() returns false, leaving
// the forest empty, when the trees hold more than 65536 distinct
// thresholds or masks, a feature index >= 0x7FFF, a NaN threshold, or a
// feature with both numerical and categorical splits (only a hand-written
// forest file can; the fitter splits each feature by its declared kind).
// RandomForest then predicts through the trees' own walk.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rf/decision_tree.hpp"
#include "rf/simd_eval.hpp"

namespace pwu::rf {

/// One node of the compiled layout. 8 bytes.
struct RankNode {
  /// kLeaf for a leaf; otherwise the feature index, with kCategorical set
  /// for set-membership splits.
  std::uint16_t feature = kLeaf;
  /// Numerical split: index into the concatenated threshold codebooks (it
  /// already carries the feature's base offset). Categorical split: index
  /// into the mask table. Leaf: 0.
  std::uint16_t code = 0;
  /// Split: tree-local index of the left child (right = left + 1).
  /// Leaf: index into the leaf-value table.
  std::int32_t left = -1;

  static constexpr std::uint16_t kLeaf = 0xFFFF;
  static constexpr std::uint16_t kCategorical = 0x8000;
  static constexpr std::uint16_t kFeatureMask = 0x7FFF;

  bool is_leaf() const { return feature == kLeaf; }

  /// Routing of a split node on one row's rank slots (`slots`): numerical
  /// left iff code >= rank; categorical left iff cat_masks[code] has the
  /// slot's level bit (level 64, no level, goes right). kMixed = false
  /// serves trees without categorical splits and skips the kind test.
  template <bool kMixed>
  bool goes_left(const std::int32_t* slots,
                 const std::uint64_t* cat_masks) const {
    if constexpr (kMixed) {
      if ((feature & kCategorical) != 0) {
        const std::int32_t level = slots[feature & kFeatureMask];
        return level < static_cast<std::int32_t>(Split::kNoLevel) &&
               ((cat_masks[code] >> level) & 1ULL) != 0;
      }
    }
    return static_cast<std::int32_t>(code) >= slots[feature];
  }
};
static_assert(sizeof(RankNode) == 8, "RankNode must stay 8 bytes");

class FlatForest {
 public:
  /// Compiles the fitted trees (replacing any previous contents). Returns
  /// false, leaving the forest empty, when they exceed the 16-bit capacity
  /// or split a feature both numerically and categorically.
  bool build(std::span<const DecisionTree> trees);
  /// Empties the forest and releases its memory.
  void clear();

  bool empty() const { return tree_offsets_.size() < 2; }
  std::size_t num_trees() const {
    return tree_offsets_.empty() ? 0 : tree_offsets_.size() - 1;
  }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Per-tree leaf values for one row (out.size() == num_trees()).
  void predict_per_tree(std::span<const double> row,
                        std::span<double> out) const;

  /// Per-tree leaf values for `n` <= kRowBlock consecutive rows (row r
  /// starts at rows + r * stride), tree-major: out[t * n + r] is tree t's
  /// leaf value for row r (out.size() == num_trees() * n). One tree's
  /// nodes stay hot while the whole block passes through it.
  void predict_block(const double* rows, std::size_t stride, std::size_t n,
                     std::span<double> out) const;

  /// Resident heap footprint of the nodes and side tables.
  std::size_t memory_bytes() const {
    return nodes_.capacity() * sizeof(RankNode) +
           tree_offsets_.capacity() * sizeof(std::uint32_t) +
           thresholds_.capacity() * sizeof(double) +
           feature_base_.capacity() * sizeof(std::uint32_t) +
           feature_categorical_.capacity() * sizeof(std::uint8_t) +
           cat_masks_.capacity() * sizeof(std::uint64_t) +
           leaf_values_.capacity() * sizeof(double) +
           tree_categorical_.capacity() * sizeof(std::uint8_t);
  }

  /// Rows per cache block: 256 rows x 200 trees of per-tree scratch is
  /// 400 KB, inside L2, and the block's rank matrix (rows x features x 4
  /// bytes) stays in L1 while one tree's nodes stream through; the wide
  /// block amortizes each tree's node-table sweep over enough rows to keep
  /// the SIMD kernel's gather chains fed.
  static constexpr std::size_t kRowBlock = 256;

 private:
  /// Number of rank slots: one per feature up to the highest split feature.
  std::size_t num_slots() const { return feature_categorical_.size(); }

  /// Fills `ranks` (row-major, num_slots() ints per row) with each row's
  /// rank slots (see the file comment).
  void compute_ranks(const double* rows, std::size_t stride, std::size_t n,
                     std::vector<std::int32_t>& ranks) const;

  /// Runs every tree over `n` rows' rank slots through `level`'s kernels,
  /// tree-major into out (as predict_block).
  void walk_trees(simd::Level level, const std::int32_t* ranks,
                  std::size_t n, double* out) const;

  std::vector<RankNode> nodes_;
  /// Tree t owns nodes_[tree_offsets_[t], tree_offsets_[t + 1]).
  std::vector<std::uint32_t> tree_offsets_;
  /// Per-feature sorted threshold codebooks, concatenated.
  std::vector<double> thresholds_;
  /// Feature f's codebook is thresholds_[feature_base_[f],
  /// feature_base_[f + 1]) (size: num_slots() + 1; empty for a
  /// categorical feature).
  std::vector<std::uint32_t> feature_base_;
  /// 1 where feature f is split categorically (size: num_slots()).
  std::vector<std::uint8_t> feature_categorical_;
  std::vector<std::uint64_t> cat_masks_;
  std::vector<double> leaf_values_;
  /// 1 for trees with a categorical split: they walk the kernel variant
  /// that tests each node's kind; numerical-only trees skip that test.
  std::vector<std::uint8_t> tree_categorical_;
};

}  // namespace pwu::rf
