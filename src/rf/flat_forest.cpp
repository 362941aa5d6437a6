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

/// Home slot of a (tag, 64-bit key) pair in a table of 2^(64 - shift)
/// slots. The thresholds of discrete parameters carry their entropy in the
/// top bits (sign, exponent, leading mantissa), so the high half is folded
/// onto the low half before the multiplicative hash.
inline std::size_t key_slot(std::uint64_t bits, std::uint32_t tag,
                            int shift) {
  std::uint64_t x = bits ^ tag;
  x ^= x >> 32;
  return static_cast<std::size_t>((x * std::uint64_t{0x9E3779B97F4A7C15}) >>
                                  shift);
}

/// Open-addressed map from a split's (feature, threshold bits) — or a
/// categorical mask — to its 16-bit code, filled once the codebooks are
/// sorted, so compiling a split is one hash probe instead of a codebook
/// search. At most half full.
class CodeTable {
 public:
  /// Key tag of categorical masks (above every feature index).
  static constexpr std::uint32_t kMaskTag = RankNode::kCategorical;

  explicit CodeTable(std::size_t entries)
      : slots_(std::bit_ceil(2 * entries + 2)),
        shift_(static_cast<int>(64 - std::bit_width(slots_.size() - 1))) {}

  /// Both zeros share one codebook entry (they compare equal), so they
  /// share one key.
  static std::uint64_t threshold_key(double threshold) {
    return std::bit_cast<std::uint64_t>(threshold == 0.0 ? 0.0 : threshold);
  }

  void insert(std::uint32_t tag, std::uint64_t bits, std::uint32_t code) {
    Slot* slot = probe(tag, bits);
    *slot = {bits, tag, code};
  }

  /// Code of a key inserted earlier.
  std::uint32_t find(std::uint32_t tag, std::uint64_t bits) {
    const Slot* slot = probe(tag, bits);
    PWU_ASSERT(slot->tag == tag, "FlatForest::build: split missing from its "
                                 "codebook or mask table");
    return slot->code;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFF;
  struct Slot {
    std::uint64_t bits = 0;
    std::uint32_t tag = kEmpty;
    std::uint32_t code = 0;
  };

  /// The key's slot, or the empty slot that ends its probe sequence.
  Slot* probe(std::uint32_t tag, std::uint64_t bits) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = key_slot(bits, tag, shift_);
    while (slots_[i].tag != kEmpty &&
           (slots_[i].tag != tag || slots_[i].bits != bits)) {
      i = (i + 1) & mask;
    }
    return &slots_[i];
  }

  std::vector<Slot> slots_;
  int shift_;
};

}  // namespace

bool FlatForest::build(std::span<const DecisionTree> trees) {
  clear();
  // Pass 1: per-feature threshold codebooks (sorted distinct doubles), the
  // categorical-mask table, and each feature's split kind. Tuning
  // parameters have few levels, so most thresholds repeat across the
  // forest; a small direct-mapped filter drops repeats before the sort. It
  // is only a filter: sort + unique below still remove whatever slips past
  // it.
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
      const auto feature = static_cast<std::size_t>(split.feature);
      if (codebooks.size() <= feature) {
        codebooks.resize(feature + 1);
        feature_categorical_.resize(feature + 1, 0);
      }
      // A feature's one rank slot holds a codebook rank or a level, so it
      // must be split one way.
      if (split.categorical ? !codebooks[feature].empty()
                            : feature_categorical_[feature] != 0) {
        clear();
        return false;
      }
      if (split.categorical) {
        feature_categorical_[feature] = 1;
        cat_masks_.push_back(split.left_mask);
        continue;
      }
      const auto bits = std::bit_cast<std::uint64_t>(split.threshold);
      Seen& slot =
          seen[key_slot(bits, static_cast<std::uint32_t>(split.feature), 54)];
      if (slot.bits == bits && slot.feature == split.feature) continue;
      slot = {bits, split.feature};
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
  CodeTable codes(thresholds_.size() + cat_masks_.size());
  for (std::size_t f = 0; f + 1 < feature_base_.size(); ++f) {
    for (std::uint32_t c = feature_base_[f]; c < feature_base_[f + 1]; ++c) {
      codes.insert(static_cast<std::uint32_t>(f),
                   CodeTable::threshold_key(thresholds_[c]), c);
    }
  }
  for (std::uint32_t c = 0; c < cat_masks_.size(); ++c) {
    codes.insert(CodeTable::kMaskTag, cat_masks_[c], c);
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
              codes.find(CodeTable::kMaskTag, src.split.left_mask));
        } else {
          node.feature = feature;
          node.code = static_cast<std::uint16_t>(
              codes.find(feature, CodeTable::threshold_key(src.split.threshold)));
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
  }
  tree_offsets_.push_back(static_cast<std::uint32_t>(nodes_.size()));
  PWU_ENSURE(nodes_.size() == total,
             "FlatForest::build: node table/offset mismatch");
  return true;
}

void FlatForest::clear() { *this = FlatForest(); }

void FlatForest::predict_per_tree(std::span<const double> row,
                                  std::span<double> out) const {
  const std::size_t num = num_trees();
  if (num == 0) {
    throw std::logic_error("FlatForest::predict_per_tree: empty forest");
  }
  if (out.size() != num) {
    throw std::invalid_argument("FlatForest::predict_per_tree: size mismatch");
  }
  PWU_REQUIRE(num_slots() <= row.size(),
              "FlatForest::predict_per_tree: row of " << row.size()
                                                      << " features for "
                                                      << num_slots()
                                                      << " rank slots");
  thread_local std::vector<std::int32_t> ranks;
  compute_ranks(row.data(), row.size(), 1, ranks);
  walk_trees(simd::Level::Scalar, ranks.data(), 1, out.data());
}

void FlatForest::compute_ranks(const double* rows, std::size_t stride,
                               std::size_t n,
                               std::vector<std::int32_t>& ranks) const {
  const std::size_t nf = num_slots();
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
    std::int32_t* dst = ranks.data() + f;
    if (feature_categorical_[f] != 0) {
      for (std::size_t r = 0; r < n; ++r) {
        dst[r * nf] =
            static_cast<std::int32_t>(Split::level_of(rows[r * stride + f]));
      }
      continue;
    }
    const double* cb = tab + feature_base_[f];
    const std::uint32_t size = feature_base_[f + 1] - feature_base_[f];
    const auto fb = static_cast<std::int32_t>(feature_base_[f]);
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

void FlatForest::walk_trees(simd::Level level, const std::int32_t* ranks,
                            std::size_t n, double* out) const {
  // Trees without a categorical split walk the variant that skips the
  // node-kind test.
  const simd::TreeKernel kernels[2] = {simd::tree_kernel(level, false),
                                       simd::tree_kernel(level, true)};
  const std::size_t nf = num_slots();
  for (std::size_t t = 0; t < num_trees(); ++t) {
    kernels[tree_categorical_[t]](nodes_.data() + tree_offsets_[t], ranks,
                                  nf, cat_masks_.data(), leaf_values_.data(),
                                  n, out + t * n);
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
  const std::size_t nf = num_slots();
  PWU_REQUIRE(n <= kRowBlock && nf <= stride,
              "FlatForest::predict_block: " << n << " rows of stride "
                                            << stride << " for " << nf
                                            << " rank slots");
  // One rank precompute per block, amortized across every tree:
  // O(rows x features x log codebook) searches buy O(trees x depth)
  // integer-only walk steps.
  thread_local std::vector<std::int32_t> ranks;
  compute_ranks(rows, stride, n, ranks);
  walk_trees(simd::active_level(), ranks.data(), n, out.data());
}

}  // namespace pwu::rf
