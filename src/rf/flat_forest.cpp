#include "rf/flat_forest.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "rf/simd_eval.hpp"
#include "util/contracts.hpp"

namespace pwu::rf {

namespace {

/// Largest table a 16-bit code can index.
constexpr std::size_t kCodeCapacity = 65536;

/// One step of the power-of-two bit-set form of lower_bound over the sorted
/// codebook cb[0, size): advance past cb[cur + step - 1] when it exists and
/// is < v. The conditions fold to cmov, so the search never mispredicts.
inline std::uint32_t search_step(const double* cb, std::uint32_t size,
                                 std::uint32_t cur, std::uint32_t step,
                                 double v) {
  const std::uint32_t cand = cur + step;
  const bool in = cand <= size;
  const double probe = cb[in ? cand - 1 : 0];
  return (in & (probe < v)) ? cand : cur;
}

/// Number of codebook entries < v: the index of the first entry >= v (0
/// for NaN, which compares false against everything).
inline std::uint32_t count_below(const double* cb, std::uint32_t size,
                                 double v) {
  std::uint32_t cur = 0;
  for (std::uint32_t step = size == 0 ? 0 : std::bit_floor(size); step != 0;
       step >>= 1) {
    cur = search_step(cb, size, cur, step, v);
  }
  return cur;
}

}  // namespace

bool FlatForest::build(std::span<const DecisionTree> trees) {
  clear();
  // Pass 1: per-feature threshold codebooks (sorted distinct doubles) and
  // the categorical-mask table. Tuning parameters have few levels, so most
  // thresholds repeat across the forest; a small direct-mapped filter drops
  // repeats before the sort. It is only a filter: sort + unique below still
  // remove whatever slips past it.
  struct Seen {
    std::uint64_t bits = 0;
    int feature = -1;
  };
  std::array<Seen, 1024> seen{};
  std::vector<std::vector<double>> codebooks;
  std::size_t total = 0;
  for (const auto& tree : trees) {
    if (!tree.fitted()) {
      throw std::logic_error("FlatForest::build: unfitted tree");
    }
    total += tree.num_nodes();
    for (const auto& node : tree.nodes()) {
      if (node.is_leaf()) continue;
      const Split& split = node.split;
      // A NaN threshold would break the codebook's sort and unique.
      if (split.feature >= RankNode::kFeatureMask ||
          (!split.categorical && std::isnan(split.threshold))) {
        clear();
        return false;
      }
      if (split.categorical) {
        cat_masks_.push_back(split.left_mask);
        continue;
      }
      const auto bits = std::bit_cast<std::uint64_t>(split.threshold);
      Seen& slot = seen[((bits ^ static_cast<std::uint64_t>(split.feature)) *
                         std::uint64_t{0x9E3779B97F4A7C15}) >>
                        54];
      if (slot.bits == bits && slot.feature == split.feature) continue;
      slot = {bits, split.feature};
      const auto feature = static_cast<std::size_t>(split.feature);
      if (codebooks.size() <= feature) codebooks.resize(feature + 1);
      codebooks[feature].push_back(split.threshold);
    }
  }
  std::sort(cat_masks_.begin(), cat_masks_.end());
  cat_masks_.erase(std::unique(cat_masks_.begin(), cat_masks_.end()),
                   cat_masks_.end());
  feature_base_.reserve(codebooks.size() + 1);
  for (auto& codebook : codebooks) {
    std::sort(codebook.begin(), codebook.end());
    codebook.erase(std::unique(codebook.begin(), codebook.end()),
                   codebook.end());
    feature_base_.push_back(static_cast<std::uint32_t>(thresholds_.size()));
    thresholds_.insert(thresholds_.end(), codebook.begin(), codebook.end());
  }
  feature_base_.push_back(static_cast<std::uint32_t>(thresholds_.size()));
  if (thresholds_.size() > kCodeCapacity ||
      cat_masks_.size() > kCodeCapacity) {
    clear();
    return false;
  }

  // Pass 2: emit every tree's nodes in breadth-first order. A node's flat
  // local index is its position in the BFS order; children are appended
  // together, so right child = left child + 1 by layout.
  nodes_.reserve(total);
  leaf_values_.reserve(total / 2 + trees.size());
  tree_offsets_.reserve(trees.size() + 1);
  tree_categorical_.reserve(trees.size());
  std::vector<std::int32_t> bfs;  // original node ids in breadth-first order
  for (const auto& tree : trees) {
    const auto& src_nodes = tree.nodes();
    const std::size_t base = nodes_.size();
    bool categorical = false;
    bfs.assign(1, 0);
    for (std::size_t head = 0; head < bfs.size(); ++head) {
      const auto& src = src_nodes[static_cast<std::size_t>(bfs[head])];
      RankNode node;
      if (src.is_leaf()) {
        node.left = static_cast<std::int32_t>(leaf_values_.size());
        leaf_values_.push_back(src.value);
      } else {
        const auto feature = static_cast<std::uint16_t>(src.split.feature);
        if (src.split.categorical) {
          categorical = true;
          node.feature =
              static_cast<std::uint16_t>(feature | RankNode::kCategorical);
          node.code = static_cast<std::uint16_t>(
              std::lower_bound(cat_masks_.begin(), cat_masks_.end(),
                               src.split.left_mask) -
              cat_masks_.begin());
        } else {
          const std::uint32_t first = feature_base_[feature];
          const std::uint32_t code =
              first + count_below(thresholds_.data() + first,
                                  feature_base_[feature + 1] - first,
                                  src.split.threshold);
          PWU_ASSERT(thresholds_[code] == src.split.threshold,
                     "FlatForest::build: threshold missing from codebook");
          node.feature = feature;
          node.code = static_cast<std::uint16_t>(code);
        }
        node.left = static_cast<std::int32_t>(bfs.size());
        bfs.push_back(src.left);
        bfs.push_back(src.right);
      }
      nodes_.push_back(node);
    }
    // Every BFS slot was visited exactly once, so every split's left child
    // (and its implicit right sibling) stays inside this tree's node table.
    PWU_ENSURE(bfs.size() == src_nodes.size(),
               "FlatForest::build: BFS covered " << bfs.size() << " of "
                                                 << src_nodes.size()
                                                 << " nodes");
    tree_offsets_.push_back(static_cast<std::uint32_t>(base));
    tree_categorical_.push_back(categorical ? 1 : 0);
    any_numerical_tree_ = any_numerical_tree_ || !categorical;
  }
  tree_offsets_.push_back(static_cast<std::uint32_t>(nodes_.size()));
  PWU_ENSURE(nodes_.size() == total,
             "FlatForest::build: node table/offset mismatch");
  return true;
}

void FlatForest::clear() { *this = FlatForest(); }

double FlatForest::walk(std::size_t t, const double* row) const {
  // Routing replicates Split::goes_left exactly: numerical go left iff
  // value <= threshold (the codebook holds the original split doubles),
  // categorical go left iff the level's mask bit is set (levels >= 64 go
  // right).
  const RankNode* nodes = nodes_.data() + tree_offsets_[t];
  std::uint32_t i = 0;
  for (;;) {
    const RankNode node = nodes[i];
    if (node.is_leaf()) {
      return leaf_values_[static_cast<std::size_t>(node.left)];
    }
    const double v = row[node.feature & RankNode::kFeatureMask];
    bool left;
    if ((node.feature & RankNode::kCategorical) != 0) {
      const auto level = static_cast<std::uint64_t>(std::llround(v));
      left = level < 64 && ((cat_masks_[node.code] >> level) & 1ULL);
    } else {
      left = v <= thresholds_[node.code];
    }
    i = static_cast<std::uint32_t>(node.left) + (left ? 0u : 1u);
  }
}

void FlatForest::predict_per_tree(std::span<const double> row,
                                  std::span<double> out) const {
  const std::size_t num = num_trees();
  if (num == 0) {
    throw std::logic_error("FlatForest::predict_per_tree: empty forest");
  }
  if (out.size() != num) {
    throw std::invalid_argument("FlatForest::predict_per_tree: size mismatch");
  }
  for (std::size_t t = 0; t < num; ++t) out[t] = walk(t, row.data());
}

void FlatForest::compute_ranks(const double* rows, std::size_t stride,
                               std::size_t n,
                               std::vector<std::int32_t>& ranks) const {
  const std::size_t nf = feature_base_.size() - 1;
  ranks.resize(n * nf);
  const double* tab = thresholds_.data();
  // Feature-major so each codebook stays cache-hot across the whole block.
  // The branchless search has a fixed trip count per feature, which lets
  // four rows' searches run interleaved — four independent load chains
  // instead of one serial one. The result is the first codebook entry >= v:
  // every smaller code fails `v <= threshold`, every code from the result
  // on passes — the exact ordered-compare semantics. NaN compares false
  // against everything, so the search leaves it at 0; pick the past-the-end
  // rank explicitly so NaN always routes right.
  for (std::size_t f = 0; f < nf; ++f) {
    const double* cb = tab + feature_base_[f];
    const std::uint32_t size = feature_base_[f + 1] - feature_base_[f];
    const auto fb = static_cast<std::int32_t>(feature_base_[f]);
    std::int32_t* dst = ranks.data() + f;
    const auto emit = [&](std::size_t r, double v, std::uint32_t cur) {
      dst[r * nf] = std::isnan(v) ? fb + static_cast<std::int32_t>(size)
                                  : fb + static_cast<std::int32_t>(cur);
    };
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
      double v[4];
      std::uint32_t cur[4] = {0, 0, 0, 0};
      for (std::size_t j = 0; j < 4; ++j) v[j] = rows[(r + j) * stride + f];
      for (std::uint32_t step = size == 0 ? 0 : std::bit_floor(size);
           step != 0; step >>= 1) {
        for (std::size_t j = 0; j < 4; ++j) {
          cur[j] = search_step(cb, size, cur[j], step, v[j]);
        }
      }
      for (std::size_t j = 0; j < 4; ++j) emit(r + j, v[j], cur[j]);
    }
    for (; r < n; ++r) {
      const double v = rows[r * stride + f];
      emit(r, v, count_below(cb, size, v));
    }
  }
}

void FlatForest::predict_block(const double* rows, std::size_t stride,
                               std::size_t n, std::span<double> out) const {
  const std::size_t num = num_trees();
  if (num == 0) {
    throw std::logic_error("FlatForest::predict_block: empty forest");
  }
  if (out.size() != num * n) {
    throw std::invalid_argument("FlatForest::predict_block: size mismatch");
  }
  const std::size_t nf = feature_base_.size() - 1;
  PWU_REQUIRE(n <= kRowBlock && nf <= stride,
              "FlatForest::predict_block: " << n << " rows of stride "
                                            << stride << " for " << nf
                                            << " codebook features");
  // One rank precompute per block, amortized across every numerical tree:
  // O(rows x features x log codebook) searches buy O(trees x depth)
  // integer-only walk steps.
  thread_local std::vector<std::int32_t> ranks;
  if (any_numerical_tree_ && nf > 0) compute_ranks(rows, stride, n, ranks);
  const simd::TreeKernel kernel = simd::tree_kernel(simd::active_level());
  for (std::size_t t = 0; t < num; ++t) {
    double* dst = out.data() + t * n;
    if (tree_categorical_[t] != 0) {
      for (std::size_t r = 0; r < n; ++r) dst[r] = walk(t, rows + r * stride);
    } else {
      kernel(nodes_.data() + tree_offsets_[t], ranks.data(), nf,
             leaf_values_.data(), n, dst);
    }
  }
}

}  // namespace pwu::rf
