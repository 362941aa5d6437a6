#include "rf/split.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pwu::rf {

bool Split::goes_left(double value) const {
  if (categorical) {
    const std::uint32_t level = level_of(value);
    return level < kNoLevel && ((left_mask >> level) & 1ULL) != 0;
  }
  return value <= threshold;
}

namespace {

// Threshold scan over a node's samples presented in ascending feature-value
// order (values[i] pairs with label_at(i)). `label_at` abstracts where the
// labels live: the column path reads inst_label through the sorted order
// array in place, the gather path reads the contiguous buffer it just
// filled — templating keeps both free of an extra gather/copy pass.
template <typename LabelAt>
Split scan_numerical(std::span<const double> values, LabelAt&& label_at,
                     std::size_t feature, double total_sum,
                     double parent_score, std::size_t min_samples_leaf) {
  const std::size_t n = values.size();
  Split best;
  double left_sum = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    left_sum += label_at(i);
    // Only cut between distinct feature values.
    if (values[i] == values[i + 1]) continue;
    const std::size_t n_left = i + 1;
    const std::size_t n_right = n - n_left;
    if (n_left < min_samples_leaf || n_right < min_samples_leaf) continue;
    const double right_sum = total_sum - left_sum;
    const double score =
        left_sum * left_sum / static_cast<double>(n_left) +
        right_sum * right_sum / static_cast<double>(n_right);
    const double gain = score - parent_score;
    if (gain > best.gain) {
      best.feature = static_cast<int>(feature);
      best.categorical = false;
      // Midpoint threshold is robust to evaluation-time values between the
      // two training values.
      best.threshold = 0.5 * (values[i] + values[i + 1]);
      best.gain = gain;
    }
  }
  return best;
}

// Breiman's optimal-grouping scan over a node's samples presented in
// ascending level order (any fixed order yields the same grouping; the
// sorted stream keeps per-level sums bit-identical across the presorted and
// gather paths).
template <typename LabelAt>
Split scan_categorical(std::span<const double> values, LabelAt&& label_at,
                       std::size_t levels, std::size_t feature,
                       double parent_score, std::size_t min_samples_leaf,
                       SplitWorkspace& ws) {
  auto& sum = ws.cat_sum;
  auto& count = ws.cat_count;
  auto& order = ws.cat_order;
  sum.assign(levels, 0.0);
  count.assign(levels, 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto level = static_cast<std::size_t>(std::llround(values[i]));
    sum[level] += label_at(i);
    ++count[level];
  }

  order.clear();
  for (std::size_t level = 0; level < levels; ++level) {
    if (count[level] > 0) order.push_back(level);
  }
  if (order.size() < 2) return {};  // feature is constant on this node

  // For squared error, the optimal binary grouping is a prefix of the
  // levels ordered by mean label.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sum[a] / static_cast<double>(count[a]) <
           sum[b] / static_cast<double>(count[b]);
  });

  double total_sum = 0.0;
  std::size_t total_count = 0;
  for (std::size_t level : order) {
    total_sum += sum[level];
    total_count += count[level];
  }

  Split best;
  double left_sum = 0.0;
  std::size_t left_count = 0;
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    left_sum += sum[order[i]];
    left_count += count[order[i]];
    mask |= 1ULL << order[i];
    const std::size_t right_count = total_count - left_count;
    if (left_count < min_samples_leaf || right_count < min_samples_leaf) {
      continue;
    }
    const double right_sum = total_sum - left_sum;
    const double score =
        left_sum * left_sum / static_cast<double>(left_count) +
        right_sum * right_sum / static_cast<double>(right_count);
    const double gain = score - parent_score;
    if (gain > best.gain) {
      best.feature = static_cast<int>(feature);
      best.categorical = true;
      best.left_mask = mask;
      best.gain = gain;
    }
  }
  return best;
}

template <typename LabelAt>
Split scan_sorted(const Dataset& data, SplitWorkspace& ws,
                  std::span<const double> values, LabelAt&& label_at,
                  std::size_t feature, double total_sum, double parent_score,
                  std::size_t min_samples_leaf) {
  if (data.is_categorical(feature)) {
    return scan_categorical(values, label_at, data.cardinality(feature),
                            feature, parent_score, min_samples_leaf, ws);
  }
  return scan_numerical(values, label_at, feature, total_sum, parent_score,
                        min_samples_leaf);
}

}  // namespace

void SortedColumns::build(const Dataset& data) {
  const std::size_t n = data.size();
  const std::size_t d = data.num_features();
  num_rows = n;
  num_features = d;
  row_order.resize(d * n);
  sorted_value.resize(d * n);
  std::vector<std::pair<double, std::uint32_t>> keyed(n);
  for (std::size_t f = 0; f < d; ++f) {
    for (std::size_t r = 0; r < n; ++r) {
      keyed[r] = {data.x(r, f), static_cast<std::uint32_t>(r)};
    }
    // Lexicographic (value, row id): a unique total order, so the column's
    // tie layout is algorithm-independent.
    std::sort(keyed.begin(), keyed.end());
    std::uint32_t* ord = row_order.data() + f * n;
    double* val = sorted_value.data() + f * n;
    for (std::size_t r = 0; r < n; ++r) {
      ord[r] = keyed[r].second;
      val[r] = keyed[r].first;
    }
  }
}

void SplitWorkspace::init(const Dataset& data, const SortedColumns& sorted,
                          std::span<const std::size_t> indices) {
  const std::size_t m = indices.size();
  const std::size_t d = data.num_features();
  num_instances = m;
  num_features = d;
  inst_row.resize(m);
  inst_label.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    inst_row[j] = static_cast<std::uint32_t>(indices[j]);
    inst_label[j] = data.y(indices[j]);
  }
  node_insts.resize(m);
  std::iota(node_insts.begin(), node_insts.end(), std::uint32_t{0});
  left_mark.assign(m, 0);
  tmp_idx.resize(m);
  tmp_val.resize(m);

  // Small trees never touch the columns (every node gathers), so skip the
  // expansion cost entirely.
  if (m < kColumnCutoff) {
    order.clear();
    value.clear();
    return;
  }

  // Bucket the instance multiset by dataset row, ascending instance id
  // within each bucket (the fill loop runs j ascending). Counting-sort
  // layout: after the fill, bucket r occupies
  // [r == 0 ? 0 : bucket_start[r-1], bucket_start[r]).
  const std::size_t n = sorted.num_rows;
  bucket_start.assign(n, 0);
  for (std::size_t j = 0; j < m; ++j) ++bucket_start[inst_row[j]];
  std::uint32_t running = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t count = bucket_start[r];
    bucket_start[r] = running;
    running += count;
  }
  bucket_insts.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    bucket_insts[bucket_start[inst_row[j]]++] = static_cast<std::uint32_t>(j);
  }

  // Expand each forest-level sorted column through the buckets: instances
  // come out in (value, row id, instance id) order, in linear time instead
  // of a per-tree sort.
  order.resize(d * m);
  value.resize(d * m);
  for (std::size_t f = 0; f < d; ++f) {
    const std::uint32_t* src_ord = sorted.row_order.data() + f * n;
    const double* src_val = sorted.sorted_value.data() + f * n;
    std::uint32_t* ord = order.data() + f * m;
    double* val = value.data() + f * m;
    std::size_t k = 0;
    for (std::size_t pos = 0; pos < n; ++pos) {
      const std::uint32_t row = src_ord[pos];
      const double v = src_val[pos];
      const std::uint32_t e = bucket_start[row];
      for (std::uint32_t b = row == 0 ? 0 : bucket_start[row - 1]; b < e;
           ++b) {
        ord[k] = bucket_insts[b];
        val[k] = v;
        ++k;
      }
    }
  }
}

Split best_split_presorted(const Dataset& data, SplitWorkspace& ws,
                           std::size_t lo, std::size_t hi, bool columns_live,
                           std::size_t feature, double node_sum,
                           double parent_score,
                           std::size_t min_samples_leaf) {
  const std::size_t n = hi - lo;
  if (n < 2) return {};
  if (columns_live) {
    const std::size_t base = feature * ws.num_instances;
    const std::uint32_t* ord = ws.order.data() + base + lo;
    const double* labels = ws.inst_label.data();
    const std::span<const double> values(ws.value.data() + base + lo, n);
    return scan_sorted(
        data, ws, values, [ord, labels](std::size_t i) { return labels[ord[i]]; },
        feature, node_sum, parent_score, min_samples_leaf);
  }
  // Gather path: sort this node's values on the spot, keyed exactly like
  // the columns — (value, dataset row id, instance id), with the two ids
  // packed into one 64-bit tiebreak — so the resulting stream is identical
  // to what a live column would hold.
  ws.gather.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t inst = ws.node_insts[lo + i];
    const std::uint32_t row = ws.inst_row[inst];
    ws.gather[i] = {data.x(row, feature),
                    (static_cast<std::uint64_t>(row) << 32) | inst};
  }
  std::sort(ws.gather.begin(), ws.gather.begin() + static_cast<std::ptrdiff_t>(n));
  ws.tmp_val.resize(std::max(ws.tmp_val.size(), n));
  ws.scan_labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ws.tmp_val[i] = ws.gather[i].first;
    const auto inst = static_cast<std::uint32_t>(ws.gather[i].second);
    ws.scan_labels[i] = ws.inst_label[inst];
  }
  const std::span<const double> values(ws.tmp_val.data(), n);
  const double* labels = ws.scan_labels.data();
  return scan_sorted(
      data, ws, values, [labels](std::size_t i) { return labels[i]; },
      feature, node_sum, parent_score, min_samples_leaf);
}

PartitionResult partition_presorted(const Dataset& data, SplitWorkspace& ws,
                                    std::size_t lo, std::size_t hi,
                                    const Split& split, bool columns_live) {
  const auto feature = static_cast<std::size_t>(split.feature);
  std::size_t n_left = 0;
  if (columns_live) {
    // The split feature's own column already holds this node's values in
    // sorted order: mark through it sequentially instead of re-fetching
    // each instance's value from the dataset.
    const std::size_t base = feature * ws.num_instances;
    const std::uint32_t* ord = ws.order.data() + base;
    const double* val = ws.value.data() + base;
    for (std::size_t i = lo; i < hi; ++i) {
      const bool left = split.goes_left(val[i]);
      ws.left_mark[ord[i]] = left ? 1 : 0;
      n_left += left ? 1u : 0u;
    }
  } else {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t inst = ws.node_insts[i];
      const bool left = split.goes_left(data.x(ws.inst_row[inst], feature));
      ws.left_mark[inst] = left ? 1 : 0;
      n_left += left ? 1u : 0u;
    }
  }
  const std::size_t mid = lo + n_left;
  if (mid == lo || mid == hi) {
    return {mid, false};  // degenerate; caller keeps a leaf
  }
  // Carrying the columns costs O(D * n); it only pays off if some child is
  // big enough to read them (column use never resumes once dropped, because
  // subtree sizes only shrink).
  const std::size_t n_right = hi - mid;
  const bool partition_columns =
      columns_live && (n_left >= SplitWorkspace::kColumnCutoff ||
                       n_right >= SplitWorkspace::kColumnCutoff);

  // Stable partition: write lefts forward in place (the write cursor never
  // passes the read cursor), stash rights in scratch, copy them back.
  auto stable_split = [&](std::uint32_t* ids, double* vals) {
    std::size_t w = lo;
    std::size_t t = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t inst = ids[i];
      if (ws.left_mark[inst]) {
        ids[w] = inst;
        if (vals != nullptr) vals[w] = vals[i];
        ++w;
      } else {
        ws.tmp_idx[t] = inst;
        if (vals != nullptr) ws.tmp_val[t] = vals[i];
        ++t;
      }
    }
    std::copy_n(ws.tmp_idx.data(), t, ids + mid);
    if (vals != nullptr) std::copy_n(ws.tmp_val.data(), t, vals + mid);
  };

  stable_split(ws.node_insts.data(), nullptr);
  if (partition_columns) {
    const std::size_t m = ws.num_instances;
    for (std::size_t f = 0; f < ws.num_features; ++f) {
      stable_split(ws.order.data() + f * m, ws.value.data() + f * m);
    }
  }
  return {mid, partition_columns};
}

Split best_split_on_feature(const Dataset& data,
                            std::span<const std::size_t> indices,
                            std::size_t feature, double parent_score,
                            std::size_t min_samples_leaf,
                            SplitWorkspace& workspace) {
  const std::size_t n = indices.size();
  if (n < 2) return {};
  auto& gather = workspace.gather;
  gather.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    gather[i] = {data.x(indices[i], feature), static_cast<std::uint32_t>(i)};
  }
  std::sort(gather.begin(), gather.end());
  workspace.tmp_val.resize(std::max(workspace.tmp_val.size(), n));
  workspace.scan_labels.resize(n);
  double total_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    workspace.tmp_val[i] = gather[i].first;
    workspace.scan_labels[i] = data.y(indices[gather[i].second]);
    total_sum += workspace.scan_labels[i];
  }
  const std::span<const double> values(workspace.tmp_val.data(), n);
  const double* labels = workspace.scan_labels.data();
  return scan_sorted(
      data, workspace, values, [labels](std::size_t i) { return labels[i]; },
      feature, total_sum, parent_score, min_samples_leaf);
}

}  // namespace pwu::rf
