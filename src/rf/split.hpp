// Best-split search for regression trees (variance-reduction criterion).
//
// Numerical features: scan the node's samples in ascending feature order and
// try all thresholds between distinct values, maximizing
//     sum_L^2 / n_L + sum_R^2 / n_R
// which is equivalent to minimizing within-child squared error.
//
// Categorical features: Breiman's optimal-grouping device for regression —
// order the levels by their mean label, then scan prefixes of that order as
// the left set. The left set is stored as a 64-bit level mask.
//
// Two ways to produce the sorted scan order:
//  - presorted columns: SortedColumns sorts every dataset feature column
//    once per forest; SplitWorkspace::init expands that order through the
//    tree's bootstrap multiset in linear time, and node splits then
//    stable-partition the columns so each node range is already sorted —
//    O(n) per feature per node instead of the former copy-and-std::sort
//    O(n log n);
//  - gather: small nodes (and the standalone entry point below) collect
//    (value, key) pairs and sort them on the spot.
// Both paths order ties by (value, dataset row id, instance id), so they
// produce identical scan sequences — and therefore bit-identical sums and
// gains.

#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rf/dataset.hpp"

namespace pwu::rf {

struct Split {
  int feature = -1;             // -1 = no valid split found
  bool categorical = false;
  double threshold = 0.0;       // numerical: go left iff x <= threshold
  std::uint64_t left_mask = 0;  // categorical: go left iff bit(level) set
  double gain = 0.0;            // decrease in total squared error

  /// Levels a categorical mask can hold; level_of returns this for a value
  /// that names none of them.
  static constexpr std::uint32_t kNoLevel = 64;

  bool valid() const { return feature >= 0; }

  /// Routing decision for a feature value of this split's feature.
  bool goes_left(double value) const;

  /// The level a categorical split tests for `value`: llround(value) when
  /// it lies in [0, 64), else kNoLevel (NaN, negative and >= 64 values),
  /// which no mask holds, so it routes right.
  static std::uint32_t level_of(double value) {
    const auto level = static_cast<std::uint64_t>(std::llround(value));
    return level < kNoLevel ? static_cast<std::uint32_t>(level) : kNoLevel;
  }

  bool operator==(const Split& other) const = default;
};

/// Dataset feature columns sorted once per forest — for each feature, the
/// dataset row ids (and their values, kept alongside for sequential reads)
/// in ascending (value, row id) order. Read-only after build, so every
/// tree's workspace init can share one instance across threads.
struct SortedColumns {
  std::size_t num_rows = 0;
  std::size_t num_features = 0;
  /// Feature f occupies [f*num_rows, (f+1)*num_rows) of both arrays.
  std::vector<std::uint32_t> row_order;
  std::vector<double> sorted_value;

  void build(const Dataset& data);
};

/// Per-tree presorted training state plus the scratch buffers reused across
/// split searches. One instance per tree build; nothing is allocated per
/// node once the tree's arrays are sized.
struct SplitWorkspace {
  /// Nodes at or above this size keep their presorted feature columns
  /// partitioned for the children; smaller subtrees fall back to the gather
  /// path, where sorting a handful of pairs beats touching every column.
  static constexpr std::size_t kColumnCutoff = 64;

  // ---- presorted per-tree state (built by init) ----
  std::size_t num_instances = 0;
  std::size_t num_features = 0;
  std::vector<std::uint32_t> inst_row;  // instance -> dataset row
  std::vector<double> inst_label;       // instance -> label
  /// Feature columns, flattened: column f occupies [f*m, (f+1)*m).
  /// Invariant: within every live node range [lo, hi), order/value hold
  /// exactly the node's instances sorted by (value, row id, instance id).
  std::vector<std::uint32_t> order;
  std::vector<double> value;
  /// The node-partition array (every node owns a contiguous range of it).
  std::vector<std::uint32_t> node_insts;

  // ---- scratch ----
  std::vector<char> left_mark;                         // instance -> side
  std::vector<std::uint32_t> tmp_idx;                  // partition scratch
  std::vector<double> tmp_val;
  std::vector<std::pair<double, std::uint64_t>> gather;  // small-node sort
  std::vector<double> scan_labels;
  std::vector<std::uint32_t> bucket_start;  // row -> first instance slot
  std::vector<std::uint32_t> bucket_insts;  // instances grouped by row
  std::vector<double> cat_sum;
  std::vector<std::size_t> cat_count;
  std::vector<std::size_t> cat_order;

  /// Lays out every feature column of the instance multiset `indices` (one
  /// dataset row per instance, repeats allowed) in canonical sorted order by
  /// expanding the forest-level `sorted` columns through the multiset —
  /// linear per column, replacing both the former per-node sorts and the
  /// former per-tree O(D n log n) sorts.
  void init(const Dataset& data, const SortedColumns& sorted,
            std::span<const std::size_t> indices);
};

/// Finds the best split of the node range [lo, hi) on `feature`, reading
/// the presorted column when `columns_live`, else gathering from
/// node_insts. `node_sum` is the node's label sum and `parent_score` its
/// sum(y)^2/n; gains are relative to the latter. Returns an invalid split
/// when no threshold satisfies `min_samples_leaf`.
Split best_split_presorted(const Dataset& data, SplitWorkspace& ws,
                           std::size_t lo, std::size_t hi, bool columns_live,
                           std::size_t feature, double node_sum,
                           double parent_score, std::size_t min_samples_leaf);

struct PartitionResult {
  std::size_t mid = 0;              // boundary index: left = [lo, mid)
  bool columns_partitioned = false; // children may keep reading the columns
};

/// Stable-partitions the node range [lo, hi) by `split`: node_insts always,
/// and — when `columns_live` and at least one child reaches kColumnCutoff —
/// every feature column too, so that child can keep reading them. Columns
/// are left untouched when both children would gather anyway (the O(D * n)
/// pass would be pure waste).
PartitionResult partition_presorted(const Dataset& data, SplitWorkspace& ws,
                                    std::size_t lo, std::size_t hi,
                                    const Split& split, bool columns_live);

/// Standalone best-split search over dataset rows `indices` (the gather
/// path; ties order by position in `indices`). Kept as the direct, testable
/// entry point.
Split best_split_on_feature(const Dataset& data,
                            std::span<const std::size_t> indices,
                            std::size_t feature, double parent_score,
                            std::size_t min_samples_leaf,
                            SplitWorkspace& workspace);

}  // namespace pwu::rf
