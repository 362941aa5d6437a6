#include "rf/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/fs_atomic.hpp"
#include "util/statistics.hpp"

namespace pwu::rf {

namespace {

/// Mean and across-tree spread of `num` per-tree values spaced `stride`
/// apart, in the reference's arithmetic: trees summed in ascending order,
/// then the two-pass deviation form, which avoids sum-of-squares
/// cancellation when trees agree to many digits.
PredictionStats stats_over_trees(const double* leaves, std::size_t num,
                                 std::size_t stride) {
  double sum = 0.0;
  for (std::size_t t = 0; t < num; ++t) sum += leaves[t * stride];
  const auto b = static_cast<double>(num);
  PredictionStats stats;
  stats.mean = sum / b;
  double sq_dev = 0.0;
  for (std::size_t t = 0; t < num; ++t) {
    const double d = leaves[t * stride] - stats.mean;
    sq_dev += d * d;
  }
  stats.variance = sq_dev / b;
  stats.stddev = std::sqrt(stats.variance);
  return stats;
}

}  // namespace

template <typename Visit>
void RandomForest::for_each_block(const double* rows, std::size_t stride,
                                  std::size_t n, util::ThreadPool* pool,
                                  Visit&& visit) const {
  constexpr std::size_t kBlock = FlatForest::kRowBlock;
  const std::size_t num = trees_.size();
  const auto run_block = [&](std::size_t block) {
    thread_local std::vector<double> leaves;
    const std::size_t begin = block * kBlock;
    const std::size_t nb = std::min(kBlock, n - begin);
    const double* base = rows + begin * stride;
    leaves.resize(num * nb);
    if (!flat_.empty()) {
      flat_.predict_block(base, stride, nb, leaves);
    } else {
      // Past the compiled layout's capacity: the reference per-tree walk.
      for (std::size_t t = 0; t < num; ++t) {
        for (std::size_t r = 0; r < nb; ++r) {
          leaves[t * nb + r] = trees_[t].predict({base + r * stride, stride});
        }
      }
    }
    visit(begin, begin + nb, std::span<const double>(leaves));
  };
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  if (pool != nullptr && pool->num_threads() > 1 && blocks > 1) {
    pool->parallel_for(0, blocks, run_block);
  } else {
    for (std::size_t block = 0; block < blocks; ++block) run_block(block);
  }
}

void RandomForest::fit(const Dataset& data, const ForestConfig& config,
                       util::Rng& rng PWU_RNG_STREAM(forest_fit),
                       util::ThreadPool* pool,
                       const util::CancelToken* cancel) {
  if (data.empty()) {
    throw std::invalid_argument("RandomForest::fit: empty dataset");
  }
  if (config.num_trees == 0) {
    throw std::invalid_argument("RandomForest::fit: num_trees must be > 0");
  }
  config_ = config;
  trees_.assign(config.num_trees, DecisionTree());

  const std::size_t n = data.size();

  // Fork one child stream per tree up front so parallel construction is
  // bit-identical to serial construction.
  std::vector<util::Rng> tree_rngs;
  tree_rngs.reserve(config.num_trees);
  for (std::size_t t = 0; t < config.num_trees; ++t) {
    tree_rngs.push_back(rng.fork());
  }

  std::vector<std::vector<char>> in_bag;
  if (config.compute_oob) in_bag.assign(config.num_trees, {});

  // Sort the dataset's feature columns once; every tree expands this shared
  // read-only order through its own bootstrap in linear time.
  SortedColumns sorted_columns;
  sorted_columns.build(data);

  auto build_tree = [&](std::size_t t) {
    // Tree boundaries are the cancellation checkpoints: cheap enough to poll
    // (one relaxed atomic load per tree), frequent enough that a cancelled
    // refit unwinds within one tree's build time.
    if (cancel != nullptr) cancel->throw_if_requested();
    // Reference-bind the tree's forked stream: the draw below then
    // resolves to an annotated local (tree_rngs[t] itself is opaque to
    // pwu_lint's receiver resolution).
    util::Rng& tree_rng PWU_RNG_STREAM(tree_bootstrap) = tree_rngs[t];
    std::vector<std::size_t> indices;
    if (config.bootstrap) {
      indices = tree_rng.bootstrap_indices(n);
    } else {
      indices.resize(n);
      std::iota(indices.begin(), indices.end(), std::size_t{0});
    }
    if (config.compute_oob) {
      in_bag[t].assign(n, 0);
      for (std::size_t idx : indices) in_bag[t][idx] = 1;
    }
    trees_[t].fit(data, std::move(indices), config.tree, tree_rngs[t],
                  &sorted_columns);
  };

  try {
    if (pool != nullptr && pool->num_threads() > 1) {
      pool->parallel_for(0, config.num_trees, build_tree);
    } else {
      for (std::size_t t = 0; t < config.num_trees; ++t) build_tree(t);
    }
  } catch (...) {
    // Cancelled (or failed) mid-ensemble: drop the partial trees so
    // fitted() reports false instead of exposing a half-built forest.
    trees_.clear();
    flat_.clear();
    throw;
  }

  // False past the compiled layout's capacity; prediction then walks the
  // trees.
  flat_.build(trees_);

  has_oob_ = false;
  if (config.compute_oob) {
    // Per-sample OOB errors from the block evaluator (parallel over blocks
    // when a pool is given), then reduced in ascending sample order so the
    // result matches the serial pass bit-for-bit: each sample's vote sum
    // runs over trees ascending either way.
    std::vector<double> sq_err(n);
    std::vector<char> has_vote(n, 0);
    for_each_block(
        data.row(0).data(), data.num_features(), n, pool,
        [&](std::size_t begin, std::size_t end,
            std::span<const double> leaves) {
          const std::size_t nb = end - begin;
          for (std::size_t i = begin; i < end; ++i) {
            double sum = 0.0;
            std::size_t votes = 0;
            for (std::size_t t = 0; t < config_.num_trees; ++t) {
              if (!in_bag[t][i]) {
                sum += leaves[t * nb + (i - begin)];
                ++votes;
              }
            }
            if (votes > 0) {
              const double err = sum / static_cast<double>(votes) - data.y(i);
              sq_err[i] = err * err;
              has_vote[i] = 1;
            }
          }
        });
    double sq_sum = 0.0;
    std::size_t counted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (has_vote[i]) {
        sq_sum += sq_err[i];
        ++counted;
      }
    }
    if (counted > 0) {
      oob_rmse_ = std::sqrt(sq_sum / static_cast<double>(counted));
      has_oob_ = true;
    }
  }
}

double RandomForest::predict(std::span<const double> row) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::predict before fit");
  }
  return predict_stats(row).mean;
}

PredictionStats RandomForest::predict_stats(std::span<const double> row) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::predict_stats before fit");
  }
  // Past the compiled layout's capacity the reference walk is the engine.
  if (flat_.empty()) return predict_stats_reference(row);
  thread_local std::vector<double> per_tree;
  per_tree.resize(trees_.size());
  flat_.predict_per_tree(row, per_tree);
  return stats_over_trees(per_tree.data(), per_tree.size(), 1);
}

PredictionStats RandomForest::predict_stats_reference(
    std::span<const double> row) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::predict_stats_reference before fit");
  }
  // Two passes over the per-tree outputs: the deviation form avoids the
  // catastrophic cancellation of sum-of-squares minus squared-mean when
  // trees agree to many digits.
  std::vector<double> per_tree;
  per_tree.reserve(trees_.size());
  double sum = 0.0;
  for (const auto& tree : trees_) {
    const double p = tree.predict(row);
    per_tree.push_back(p);
    sum += p;
  }
  const auto b = static_cast<double>(trees_.size());
  PredictionStats stats;
  stats.mean = sum / b;
  double sq_dev = 0.0;
  for (double p : per_tree) {
    const double d = p - stats.mean;
    sq_dev += d * d;
  }
  stats.variance = sq_dev / b;
  stats.stddev = std::sqrt(stats.variance);
  return stats;
}

std::vector<PredictionStats> RandomForest::predict_stats_batch(
    const FeatureMatrix& rows, util::ThreadPool* pool) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::predict_stats_batch before fit");
  }
  std::vector<PredictionStats> out(rows.num_rows());
  if (out.empty()) return out;
  for_each_block(rows.row(0).data(), rows.num_cols(), rows.num_rows(), pool,
                 [&](std::size_t begin, std::size_t end,
                     std::span<const double> leaves) {
                   const std::size_t nb = end - begin;
                   for (std::size_t r = 0; r < nb; ++r) {
                     out[begin + r] = stats_over_trees(
                         leaves.data() + r, trees_.size(), nb);
                   }
                 });
  return out;
}

double RandomForest::oob_rmse() const {
  return has_oob_ ? oob_rmse_ : std::numeric_limits<double>::quiet_NaN();
}

std::vector<double> RandomForest::permutation_importance(
    const Dataset& reference, util::Rng& rng PWU_RNG_STREAM(permutation),
    util::ThreadPool* pool) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::permutation_importance before fit");
  }
  const std::size_t n = reference.size();
  const std::size_t d = reference.num_features();
  if (n == 0) return std::vector<double>(d, 0.0);

  // One scratch matrix for the whole sweep: permute a column in place,
  // batch-predict, restore it from the reference.
  FeatureMatrix scratch = FeatureMatrix::with_capacity(d, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = reference.row(i);
    auto dst = scratch.append_row();
    std::copy(src.begin(), src.end(), dst.begin());
  }
  std::vector<double> predictions(n);

  auto mse = [&]() {
    for_each_block(scratch.row(0).data(), d, n, pool,
                   [&](std::size_t begin, std::size_t end,
                       std::span<const double> leaves) {
                     const std::size_t nb = end - begin;
                     for (std::size_t r = 0; r < nb; ++r) {
                       double sum = 0.0;
                       for (std::size_t t = 0; t < trees_.size(); ++t) {
                         sum += leaves[t * nb + r];
                       }
                       predictions[begin + r] =
                           sum / static_cast<double>(trees_.size());
                     }
                   });
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double err = predictions[i] - reference.y(i);
      acc += err * err;
    }
    return acc / static_cast<double>(n);
  };

  const double baseline = mse();
  std::vector<double> importance(d);
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t f = 0; f < d; ++f) {
    rng.shuffle(perm);
    for (std::size_t i = 0; i < n; ++i) {
      scratch(i, f) = reference.x(perm[i], f);
    }
    importance[f] = mse() - baseline;
    for (std::size_t i = 0; i < n; ++i) {
      scratch(i, f) = reference.x(i, f);
    }
  }
  return importance;
}

std::size_t RandomForest::total_nodes() const {
  std::size_t total = 0;
  for (const auto& tree : trees_) total += tree.num_nodes();
  return total;
}

std::size_t RandomForest::memory_bytes() const {
  std::size_t total = flat_.memory_bytes();
  for (const auto& tree : trees_) total += tree.memory_bytes();
  return total;
}

std::size_t RandomForest::max_depth() const {
  std::size_t depth = 0;
  for (const auto& tree : trees_) depth = std::max(depth, tree.depth());
  return depth;
}

void RandomForest::save(std::ostream& os) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::save before fit");
  }
  os << "pwu-random-forest 1\n";
  os << trees_.size() << ' ' << config_.tree.max_depth << ' '
     << config_.tree.min_samples_leaf << ' ' << config_.tree.min_samples_split
     << ' ' << config_.tree.mtry << ' ' << (config_.bootstrap ? 1 : 0)
     << '\n';
  for (const auto& tree : trees_) tree.save(os);
}

void RandomForest::load(std::istream& is) {
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != "pwu-random-forest" ||
      version != 1) {
    throw std::runtime_error("RandomForest::load: bad header");
  }
  std::size_t num_trees = 0;
  int bootstrap = 1;
  ForestConfig config;
  if (!(is >> num_trees >> config.tree.max_depth >>
        config.tree.min_samples_leaf >> config.tree.min_samples_split >>
        config.tree.mtry >> bootstrap) ||
      num_trees == 0) {
    throw std::runtime_error("RandomForest::load: bad config line");
  }
  config.num_trees = num_trees;
  config.bootstrap = bootstrap != 0;
  std::vector<DecisionTree> trees(num_trees);
  for (auto& tree : trees) tree.load(is);
  trees_ = std::move(trees);
  flat_.build(trees_);
  config_ = config;
  has_oob_ = false;
}

void RandomForest::save_file(const std::string& path) const {
  std::ostringstream out;
  save(out);
  if (!out) {
    throw std::runtime_error("RandomForest::save_file: serialization failed");
  }
  // Torn forest files are unrecoverable (and silently poison resumed
  // sessions), so the write goes through the crash-safe path: tmp + CRC
  // footer + fsync + rename.
  util::atomic_write_file(path, out.str());
}

RandomForest RandomForest::load_file(const std::string& path) {
  RandomForest forest;
  const util::VerifiedRead verified = util::read_verified_file(path);
  if (verified.status == util::ReadStatus::Ok) {
    std::istringstream in(verified.payload);
    forest.load(in);
    return forest;
  }
  // Legacy / golden-fixture files predate the CRC footer; read them as-is.
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("RandomForest::load_file: cannot open " + path);
  }
  forest.load(in);
  return forest;
}

}  // namespace pwu::rf
