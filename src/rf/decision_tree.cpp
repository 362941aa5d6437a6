#include "rf/decision_tree.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "util/contracts.hpp"

namespace pwu::rf {

std::size_t TreeConfig::resolve_mtry(std::size_t num_features) const {
  if (mtry > 0) return std::min(mtry, num_features);
  return std::max<std::size_t>(1, num_features / 3);
}

void DecisionTree::fit(const Dataset& data, std::vector<std::size_t> indices,
                       const TreeConfig& config, util::Rng& rng,
                       const SortedColumns* presorted) {
  if (indices.empty()) {
    throw std::invalid_argument("DecisionTree::fit: empty sample set");
  }
  nodes_.clear();
  nodes_.reserve(2 * indices.size());
  SortedColumns local_sorted;
  if (presorted == nullptr) {
    local_sorted.build(data);
    presorted = &local_sorted;
  }
  SplitWorkspace workspace;
  workspace.init(data, *presorted, indices);
  std::vector<std::size_t> feature_scratch(data.num_features());
  std::iota(feature_scratch.begin(), feature_scratch.end(), std::size_t{0});
  const bool columns_live = indices.size() >= SplitWorkspace::kColumnCutoff;
  build(data, 0, indices.size(), 0, config, rng, workspace, feature_scratch,
        columns_live);
  // The reserve above is an upper bound; a tree usually holds far fewer
  // nodes, and a session keeps its forest for a whole refit interval.
  nodes_.shrink_to_fit();
}

std::int32_t DecisionTree::build(const Dataset& data, std::size_t lo,
                                 std::size_t hi, std::size_t depth,
                                 const TreeConfig& config,
                                 util::Rng& rng PWU_RNG_STREAM(tree_fit),
                                 SplitWorkspace& workspace,
                                 std::vector<std::size_t>& feature_scratch,
                                 bool columns_live) {
  const std::size_t n = hi - lo;
  PWU_ASSERT(n > 0, "build: empty node range [" << lo << ", " << hi << ")");

  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    sum += workspace.inst_label[workspace.node_insts[i]];
  }
  const double node_mean = sum / static_cast<double>(n);

  const auto node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_id)].value = node_mean;

  const bool depth_capped = config.max_depth > 0 && depth >= config.max_depth;
  if (n < config.min_samples_split || n < 2 * config.min_samples_leaf ||
      depth_capped) {
    return node_id;
  }

  // Constant labels: nothing to gain.
  const double first_label =
      workspace.inst_label[workspace.node_insts[lo]];
  bool constant = true;
  for (std::size_t i = lo + 1; i < hi; ++i) {
    if (workspace.inst_label[workspace.node_insts[i]] != first_label) {
      constant = false;
      break;
    }
  }
  if (constant) return node_id;

  const double parent_score = sum * sum / static_cast<double>(n);
  const std::size_t mtry = config.resolve_mtry(data.num_features());

  // Partial Fisher-Yates: the first `mtry` entries of feature_scratch become
  // the sampled feature subset.
  for (std::size_t i = 0; i < mtry; ++i) {
    const std::size_t j = i + rng.index(feature_scratch.size() - i);
    std::swap(feature_scratch[i], feature_scratch[j]);
  }

  Split best;
  for (std::size_t f = 0; f < mtry; ++f) {
    Split candidate = best_split_presorted(data, workspace, lo, hi,
                                           columns_live, feature_scratch[f],
                                           sum, parent_score,
                                           config.min_samples_leaf);
    if (candidate.valid() && candidate.gain > best.gain) best = candidate;
  }
  if (!best.valid() || best.gain <= 1e-12 * std::max(1.0, parent_score)) {
    return node_id;
  }

  // Stable partition of the instance range by the chosen split; the columns
  // are carried along only while some child is big enough to read them.
  const auto part =
      partition_presorted(data, workspace, lo, hi, best, columns_live);
  const std::size_t mid = part.mid;
  if (mid == lo || mid == hi) {
    // Shouldn't happen given leaf constraints, but guard against pathological
    // floating-point edge cases by keeping the node a leaf.
    return node_id;
  }

  nodes_[static_cast<std::size_t>(node_id)].split = best;
  const std::int32_t left = build(data, lo, mid, depth + 1, config, rng,
                                  workspace, feature_scratch,
                                  part.columns_partitioned);
  const std::int32_t right = build(data, mid, hi, depth + 1, config, rng,
                                   workspace, feature_scratch,
                                   part.columns_partitioned);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

double DecisionTree::predict(std::span<const double> row) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::predict before fit");
  }
  std::size_t node = 0;
  for (;;) {
    const Node& current = nodes_[node];
    if (current.is_leaf()) return current.value;
    const double value =
        row[static_cast<std::size_t>(current.split.feature)];
    node = static_cast<std::size_t>(current.split.goes_left(value)
                                        ? current.left
                                        : current.right);
  }
}

std::size_t DecisionTree::num_leaves() const {
  std::size_t leaves = 0;
  for (const auto& node : nodes_) {
    if (node.is_leaf()) ++leaves;
  }
  return leaves;
}

std::size_t DecisionTree::depth_of(std::int32_t node) const {
  const Node& current = nodes_[static_cast<std::size_t>(node)];
  if (current.is_leaf()) return 0;
  return 1 + std::max(depth_of(current.left), depth_of(current.right));
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  return depth_of(0);
}

void DecisionTree::save(std::ostream& os) const {
  const auto precision = os.precision();
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "tree " << nodes_.size() << '\n';
  for (const Node& node : nodes_) {
    os << node.split.feature << ' ' << (node.split.categorical ? 1 : 0)
       << ' ' << node.split.threshold << ' ' << node.split.left_mask << ' '
       << node.split.gain << ' ' << node.value << ' ' << node.left << ' '
       << node.right << '\n';
  }
  os.precision(precision);
}

void DecisionTree::load(std::istream& is) {
  std::string tag;
  std::size_t count = 0;
  if (!(is >> tag >> count) || tag != "tree") {
    throw std::runtime_error("DecisionTree::load: bad header");
  }
  std::vector<Node> nodes(count);
  for (Node& node : nodes) {
    int categorical = 0;
    if (!(is >> node.split.feature >> categorical >> node.split.threshold >>
          node.split.left_mask >> node.split.gain >> node.value >>
          node.left >> node.right)) {
      throw std::runtime_error("DecisionTree::load: truncated node table");
    }
    node.split.categorical = categorical != 0;
  }
  // Structural validation: child indices in range, no self loops.
  for (const Node& node : nodes) {
    if (!node.is_leaf()) {
      if (node.left < 0 || node.right < 0 ||
          static_cast<std::size_t>(node.left) >= nodes.size() ||
          static_cast<std::size_t>(node.right) >= nodes.size()) {
        throw std::runtime_error("DecisionTree::load: invalid child index");
      }
    }
  }
  nodes_ = std::move(nodes);
}

bool DecisionTree::operator==(const DecisionTree& other) const {
  return nodes_ == other.nodes_;
}

}  // namespace pwu::rf
