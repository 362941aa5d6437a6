// The SIMD kernel tiers share one contract with the compiled forest: any
// dispatch level may change throughput only — never a single output bit.
// These tests sweep every compiled tier over adversarial hand-laid trees
// (loaded through DecisionTree::load, so they pass through the same
// compile step as fitted models), fitted forests on extreme-value data,
// NaN feature values, the full workload registry, and forests past the
// compiled layout's capacity.

#include "rf/simd_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "rf/decision_tree.hpp"
#include "rf/feature_matrix.hpp"
#include "rf/flat_forest.hpp"
#include "rf/random_forest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"

#ifndef PWU_TEST_DATA_DIR
#define PWU_TEST_DATA_DIR "tests/data"
#endif

namespace pwu::rf {
namespace {

/// Every tier the dispatcher can actually select on this build + CPU.
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels = {simd::Level::Scalar};
  if (simd::detected_level() >= simd::Level::Avx2) {
    levels.push_back(simd::Level::Avx2);
  }
  return levels;
}

/// RAII override so a failing EXPECT cannot leak a pinned level.
struct LevelGuard {
  explicit LevelGuard(simd::Level level) { simd::set_level_override(level); }
  ~LevelGuard() { simd::clear_level_override(); }
};

TEST(SimdEval, LevelParsingAndDetection) {
  EXPECT_STREQ(simd::level_name(simd::Level::Scalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::Avx2), "avx2");
  EXPECT_EQ(simd::parse_level("avx2"), simd::Level::Avx2);
  EXPECT_EQ(simd::parse_level("scalar"), simd::Level::Scalar);
  EXPECT_FALSE(simd::parse_level("avx512").has_value());
  EXPECT_FALSE(simd::parse_level(nullptr).has_value());
  // The override clamps to what this CPU supports, so active <= detected
  // always holds.
  for (const simd::Level level : available_levels()) {
    LevelGuard guard(level);
    EXPECT_EQ(simd::active_level(), level);
  }
  EXPECT_LE(static_cast<int>(simd::active_level()),
            static_cast<int>(simd::detected_level()));
}

TEST(SimdEval, UnrecognisedEnvLevelClampsDispatchToScalar) {
  // Unset means no ceiling; a recognised value is its own ceiling.
  EXPECT_EQ(simd::env_level_ceiling(nullptr), simd::Level::Avx2);
  EXPECT_EQ(simd::env_level_ceiling("avx2"), simd::Level::Avx2);
  EXPECT_EQ(simd::env_level_ceiling("scalar"), simd::Level::Scalar);
  // Anything else — a typo, or the retired sse2 tier — must not undo the
  // scalar pin of the simd presets by lifting dispatch to AVX2.
  EXPECT_FALSE(simd::parse_level("sse2").has_value());
  EXPECT_EQ(simd::env_level_ceiling("sse2"), simd::Level::Scalar);
  EXPECT_EQ(simd::env_level_ceiling("Scalar"), simd::Level::Scalar);
  EXPECT_EQ(simd::env_level_ceiling(""), simd::Level::Scalar);
}

// ---- hand-laid trees -------------------------------------------------------
//
// Adversarial shapes (single leaf, right-spine chains deeper than any
// fitted tree, threshold extremes, NaN) are written in DecisionTree::save's
// format and loaded, so they reach the kernels through the same compile
// step as fitted models, without coaxing the fitter into producing them.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

/// One node of a hand-laid tree: a leaf (feature -1) or a split.
struct HandNode {
  int feature = -1;
  bool categorical = false;
  double threshold = 0.0;
  std::uint64_t mask = 0;
  double value = 0.0;
  int left = -1;
  int right = -1;
};

HandNode leaf(double value) { return {-1, false, 0.0, 0, value, -1, -1}; }

HandNode le_split(int feature, double threshold, int left, int right) {
  return {feature, false, threshold, 0, 0.0, left, right};
}

/// A forest of the given trees, loaded through RandomForest::load.
RandomForest load_forest(const std::vector<std::vector<HandNode>>& trees) {
  std::ostringstream text;
  text.precision(std::numeric_limits<double>::max_digits10);
  text << "pwu-random-forest 1\n" << trees.size() << " 0 1 2 0 0\n";
  for (const auto& nodes : trees) {
    text << "tree " << nodes.size() << '\n';
    for (const HandNode& n : nodes) {
      text << n.feature << ' ' << (n.categorical ? 1 : 0) << ' '
           << n.threshold << ' ' << n.mask << " 0 " << n.value << ' '
           << n.left << ' ' << n.right << '\n';
    }
  }
  std::istringstream in(text.str());
  RandomForest forest;
  forest.load(in);
  return forest;
}

/// `rows` rows of `width` columns; row r carries probes[r % size] in column
/// `col` and junk elsewhere. 333 rows make two row blocks, the second with
/// a full 64-row AVX2 group and a 13-row scalar tail.
FeatureMatrix probe_rows(const std::vector<double>& probes, std::size_t width,
                         std::size_t col, std::size_t rows = 333) {
  FeatureMatrix m = FeatureMatrix::with_capacity(width, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    auto dst = m.append_row();
    for (std::size_t c = 0; c < width; ++c) dst[c] = c % 2 == 0 ? 1e9 : -1e9;
    dst[col] = probes[r % probes.size()];
  }
  return m;
}

/// Every entry point, at every tier, serial and pooled, must put row r on
/// the leaf worth expect[r % expect.size()] (one-tree forests: mean == leaf
/// value, variance 0) — and so must the tree-walk reference.
void expect_leaves(const RandomForest& forest, const FeatureMatrix& rows,
                   const std::vector<double>& expect) {
  util::ThreadPool pool(3);
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    ASSERT_EQ(forest.predict_stats_reference(rows.row(r)).mean,
              expect[r % expect.size()])
        << "reference, row " << r;
  }
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    LevelGuard guard(level);
    const auto serial = forest.predict_stats_batch(rows);
    const auto pooled = forest.predict_stats_batch(rows, &pool);
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
      const double want = expect[r % expect.size()];
      EXPECT_EQ(serial[r].mean, want) << "row " << r;
      EXPECT_EQ(serial[r].variance, 0.0) << "row " << r;
      EXPECT_EQ(pooled[r].mean, want) << "row " << r;
      EXPECT_EQ(forest.predict(rows.row(r)), want) << "row " << r;
      EXPECT_EQ(forest.predict_stats(rows.row(r)).mean, want) << "row " << r;
    }
  }
}

TEST(SimdEval, SingleLeafTreeAllTiers) {
  const RandomForest forest = load_forest({{leaf(3.25)}});
  ASSERT_FALSE(forest.flat().empty());
  expect_leaves(forest, probe_rows({0.0, kNaN, -kMax}, 1, 0), {3.25});
}

TEST(SimdEval, DeepRightSpineChainAllTiers) {
  // 40 levels of "feature 0 <= i ? leaf : deeper": a row with value v lands
  // on the leaf for the first i with v <= i (999 past the chain), so lanes
  // finish many levels apart and exercise the full-lane leaf blend. NaN
  // fails every compare and runs the whole chain to the right.
  constexpr int kDepth = 40;
  std::vector<HandNode> nodes;
  for (int i = 0; i < kDepth; ++i) {
    nodes.push_back(le_split(0, i, 2 * i + 1, 2 * i + 2));  // node 2i
    nodes.push_back(leaf(100.0 + i));                       // node 2i+1
  }
  nodes.push_back(leaf(999.0));
  const RandomForest forest = load_forest({nodes});
  ASSERT_FALSE(forest.flat().empty());
  std::vector<double> probes;
  std::vector<double> expect;
  for (int r = 0; r < 47; ++r) {
    probes.push_back(static_cast<double>(r) - 3.5);  // negatives, .5 offsets
  }
  probes.push_back(kNaN);
  for (const double v : probes) {
    int i = 0;
    while (i < kDepth && !(v <= static_cast<double>(i))) ++i;
    expect.push_back(i < kDepth ? 100.0 + i : 999.0);
  }
  EXPECT_EQ(expect.back(), 999.0);  // NaN
  expect_leaves(forest, probe_rows(probes, 1, 0), expect);
}

TEST(SimdEval, ThresholdExtremesRouteIdenticallyAllTiers) {
  // A right spine on feature 1 (of 3, so the rank stride is non-trivial)
  // with thresholds at the extremes of the double line: +-DBL_MAX,
  // +-1e-300, +-denormal, and both zeros (equal under <=, so they share
  // one codebook entry). Probes hit every threshold, values between, and
  // NaN, which must route right at every split.
  const std::vector<double> thresholds = {-kMax, -1e-300, -kDenorm, 0.0,
                                          -0.0,  kDenorm, 1e-300,   kMax};
  std::vector<HandNode> nodes;
  const int k = static_cast<int>(thresholds.size());
  for (int i = 0; i < k; ++i) {
    nodes.push_back(le_split(1, thresholds[static_cast<std::size_t>(i)],
                             2 * i + 1, 2 * i + 2));
    nodes.push_back(leaf(static_cast<double>(i)));
  }
  nodes.push_back(leaf(-1.0));
  const RandomForest forest = load_forest({nodes});
  ASSERT_FALSE(forest.flat().empty());
  const std::vector<double> probes = {
      0.0, -0.0, kDenorm, -kDenorm, kMax, -kMax, 1e-300, -1e-300, 0.5, -0.5,
      2 * kDenorm, -2 * kDenorm, kNaN, -kNaN};
  std::vector<double> expect;
  for (const double v : probes) {
    int i = 0;
    while (i < k && !(v <= thresholds[static_cast<std::size_t>(i)])) ++i;
    expect.push_back(i < k ? static_cast<double>(i) : -1.0);
  }
  EXPECT_EQ(expect[0], expect[1]);  // +0.0 and -0.0 route together
  EXPECT_EQ(expect[12], -1.0);      // NaN: right at every split
  EXPECT_EQ(expect[13], -1.0);
  expect_leaves(forest, probe_rows(probes, 3, 1), expect);
}

TEST(SimdEval, ExtremeValueForestAgreesAtEveryTier) {
  // A fitted forest over labels and features spanning ~600 orders of
  // magnitude: the codebooks must hold the exact split doubles (no
  // snapping), so even pathological thresholds route like the tree walk.
  util::Rng rng(404);
  Dataset data(2);
  for (int i = 0; i < 120; ++i) {
    const double a = std::ldexp(rng.uniform(0.5, 1.0),
                                static_cast<int>(rng.uniform_int(-300, 300)));
    const double b = rng.uniform(-1e9, 1e9);
    data.add(std::vector<double>{a, b}, std::log(std::abs(a)) + b * 1e-9);
  }
  ForestConfig cfg;
  cfg.num_trees = 6;
  RandomForest fitted;
  fitted.fit(data, cfg, rng);
  ASSERT_FALSE(fitted.flat().empty());
  FeatureMatrix extremes = FeatureMatrix::with_capacity(2, 300);
  for (int i = 0; i < 300; ++i) {
    auto dst = extremes.append_row();
    dst[0] = i % 37 == 0 ? kNaN
                         : std::ldexp(rng.uniform(0.5, 1.0),
                                      static_cast<int>(
                                          rng.uniform_int(-300, 300)));
    dst[1] = i % 41 == 0 ? kNaN : rng.uniform(-1e9, 1e9);
  }
  util::ThreadPool pool(3);
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    LevelGuard guard(level);
    const auto serial = fitted.predict_stats_batch(extremes);
    const auto pooled = fitted.predict_stats_batch(extremes, &pool);
    for (std::size_t i = 0; i < extremes.num_rows(); ++i) {
      const PredictionStats ref =
          fitted.predict_stats_reference(extremes.row(i));
      EXPECT_EQ(serial[i].mean, ref.mean) << "row " << i;
      EXPECT_EQ(serial[i].variance, ref.variance) << "row " << i;
      EXPECT_EQ(pooled[i].mean, ref.mean) << "row " << i;
      EXPECT_EQ(pooled[i].variance, ref.variance) << "row " << i;
    }
  }
}

/// `rows` rows cycling through `probes` (row r is probes[r % size]); 333
/// rows make two row blocks, as in probe_rows.
FeatureMatrix cycle_rows(const std::vector<std::vector<double>>& probes,
                         std::size_t rows = 333) {
  FeatureMatrix m = FeatureMatrix::with_capacity(probes.front().size(), rows);
  for (std::size_t r = 0; r < rows; ++r) m.add_row(probes[r % probes.size()]);
  return m;
}

HandNode cat_split(int feature, std::uint64_t mask, int left, int right) {
  return {feature, true, 0.0, mask, 0.0, left, right};
}

Split categorical_split(int feature, std::uint64_t mask) {
  Split split;
  split.feature = feature;
  split.categorical = true;
  split.left_mask = mask;
  return split;
}

TEST(SimdEval, NanRoutesLikeGoesLeftThroughCategoricalSplits) {
  // A NaN level must land where Split::goes_left sends it (right), and NaN
  // in the numerical split below must too — at every tier, through full
  // 64-row AVX2 groups and the scalar tail.
  const Split cat = categorical_split(0, 0b101);  // levels 0 and 2 go left
  const std::vector<HandNode> nodes = {
      cat_split(0, cat.left_mask, 1, 2), le_split(1, 0.5, 3, 4), leaf(7.0),
      leaf(1.0), leaf(2.0)};
  const RandomForest forest = load_forest({nodes});
  ASSERT_FALSE(forest.flat().empty());
  const std::vector<std::vector<double>> probes = {
      {0.0, 0.0}, {1.0, 0.0},   {2.0, 1.0},   {3.0, 0.0},
      {63.0, 0.0}, {64.0, 0.0}, {kNaN, 0.0}, {2.0, kNaN}};
  std::vector<double> expect;
  for (const auto& p : probes) {
    expect.push_back(cat.goes_left(p[0]) ? (p[1] <= 0.5 ? 1.0 : 2.0) : 7.0);
  }
  EXPECT_FALSE(cat.goes_left(kNaN));
  EXPECT_EQ(expect[6], 7.0);  // NaN level: right
  EXPECT_EQ(expect[7], 2.0);  // NaN value under the numerical split: right
  expect_leaves(forest, cycle_rows(probes), expect);
}

TEST(SimdEval, CategoricalLevelsRouteLikeGoesLeftAtFullWidth) {
  // Two categorical features under one numerical one. Feature 1's mask
  // sets bits in both 32-bit halves (the AVX2 tier gathers the high word
  // for levels 32-63), feature 2's only low bits. Probes cover the level
  // edges (0, 31, 32, 63), rounding on both sides of 63.5 and -0.5, the
  // no-level values (64, 1e30, +-inf, NaN) and in-between levels; an odd
  // probe count puts every probe in every lane of a 64-row group.
  const Split hi = categorical_split(
      1, (1ULL << 0) | (1ULL << 5) | (1ULL << 31) | (1ULL << 32) |
             (1ULL << 40) | (1ULL << 63));
  const Split lo = categorical_split(2, 0b1011);  // levels 0, 1, 3
  const std::vector<HandNode> nodes = {
      cat_split(1, hi.left_mask, 1, 2),  // 0
      le_split(0, 0.5, 3, 4),            // 1
      cat_split(2, lo.left_mask, 5, 6),  // 2
      leaf(1.0),                         // 3
      leaf(2.0),                         // 4
      leaf(3.0),                         // 5
      leaf(4.0)};                        // 6
  const RandomForest forest = load_forest({nodes});
  ASSERT_FALSE(forest.flat().empty());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> levels = {
      0.0,  31.0, 32.0, 63.0, 63.4, 63.6, 64.0, -0.4, -0.6,  1e30, kInf,
      -kInf, kNaN, 5.0, 40.0, 62.5, 31.5, 0.5,  1.0,  3.0,   2.0,  -1e30,
      33.0, 64.4, 7.0};
  std::vector<std::vector<double>> probes;
  std::vector<double> expect;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const double f0 = i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 1.0 : kNaN);
    const double f2 = levels[(i * 7 + 3) % levels.size()];
    probes.push_back({f0, levels[i], f2});
    expect.push_back(hi.goes_left(levels[i]) ? (f0 <= 0.5 ? 1.0 : 2.0)
                                             : (lo.goes_left(f2) ? 3.0 : 4.0));
  }
  ASSERT_EQ(probes.size() % 2, 1u);
  // Spot checks of the routing the probes pin down.
  EXPECT_TRUE(hi.goes_left(32.0));   // high word, bit 0
  EXPECT_TRUE(hi.goes_left(63.4));   // rounds to 63
  EXPECT_FALSE(hi.goes_left(63.6));  // rounds to 64: no level
  EXPECT_TRUE(hi.goes_left(-0.4));   // rounds to 0
  EXPECT_FALSE(hi.goes_left(-0.6));  // rounds to -1: no level
  EXPECT_TRUE(lo.goes_left(0.5));    // rounds half away from zero, to 1
  expect_leaves(forest, cycle_rows(probes), expect);
}

// ---- fitted forests: every tier == the tree-walk reference ----------------

Dataset space_dataset(const workloads::Workload& workload, std::size_t n,
                      util::Rng& rng) {
  const auto& space = workload.space();
  Dataset data(space.num_params(), space.categorical_mask(),
               space.cardinalities());
  for (std::size_t i = 0; i < n; ++i) {
    const auto config = space.random_config(rng);
    data.add(space.features(config), workload.measure(config, rng, 1));
  }
  return data;
}

/// permutation_importance's definition, evaluated through the tree-walk
/// reference: the same permutation draws, MSE over the permuted rows.
std::vector<double> reference_importance(const RandomForest& forest,
                                         const Dataset& data,
                                         util::Rng& rng) {
  const std::size_t n = data.size();
  const std::size_t d = data.num_features();
  std::vector<double> row(d);
  const auto mse = [&](const std::vector<std::size_t>& perm,
                       std::size_t permuted) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < d; ++c) row[c] = data.x(i, c);
      if (permuted < d) row[permuted] = data.x(perm[i], permuted);
      const double err = forest.predict_stats_reference(row).mean - data.y(i);
      acc += err * err;
    }
    return acc / static_cast<double>(n);
  };
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  const double baseline = mse(perm, d);
  std::vector<double> importance(d);
  for (std::size_t f = 0; f < d; ++f) {
    rng.shuffle(perm);
    importance[f] = mse(perm, f) - baseline;
  }
  return importance;
}

TEST(SimdEval, FeatureSplitBothWaysFallsBackToTreeWalkBitExact) {
  // Feature 0 carries a numerical and a categorical split, so it has no
  // single rank slot: the forest stays uncompiled (the fitter never does
  // this; only a hand-written forest file can), and every entry point
  // predicts through the trees' own walk, bit for bit.
  const std::vector<HandNode> mixed = {
      le_split(0, 2.5, 1, 2), cat_split(0, 0b0101, 3, 4),
      le_split(1, 0.0, 5, 6), leaf(10.0), leaf(11.0), leaf(12.0), leaf(13.0)};
  const std::vector<HandNode> high = {
      cat_split(0, (1ULL << 3) | (1ULL << 40), 1, 2), leaf(20.0), leaf(21.5)};
  const RandomForest forest = load_forest({mixed, high});
  ASSERT_TRUE(forest.flat().empty());
  ASSERT_EQ(forest.flat().memory_bytes(), 0u);

  const std::vector<double> values = {0.0, 2.0, 2.5, 3.0,  40.0, 63.6,
                                      -0.6, kNaN, 1e30, -1.0, 0.4};
  std::vector<std::vector<double>> probes;
  for (std::size_t i = 0; i < values.size(); ++i) {
    probes.push_back({values[i], values[(i * 3 + 1) % values.size()]});
  }
  const FeatureMatrix rows = cycle_rows(probes);
  Dataset data(2);  // permutation importance over the finite probes
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    const auto row = rows.row(r);
    if (std::isfinite(row[0]) && std::isfinite(row[1])) {
      data.add(row, static_cast<double>(r % 5));
    }
  }
  util::Rng ref_rng(11);
  const std::vector<double> ref_importance =
      reference_importance(forest, data, ref_rng);
  util::ThreadPool pool(3);
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    LevelGuard guard(level);
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                &pool}) {
      SCOPED_TRACE(p == nullptr ? "serial" : "pooled");
      const auto batch = forest.predict_stats_batch(rows, p);
      for (std::size_t r = 0; r < rows.num_rows(); ++r) {
        const PredictionStats ref = forest.predict_stats_reference(rows.row(r));
        EXPECT_EQ(batch[r].mean, ref.mean) << "row " << r;
        EXPECT_EQ(batch[r].variance, ref.variance) << "row " << r;
      }
      util::Rng perm_rng(11);
      EXPECT_EQ(forest.permutation_importance(data, perm_rng, p),
                ref_importance);
    }
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
      const PredictionStats ref = forest.predict_stats_reference(rows.row(r));
      const PredictionStats one = forest.predict_stats(rows.row(r));
      EXPECT_EQ(one.mean, ref.mean) << "row " << r;
      EXPECT_EQ(one.variance, ref.variance) << "row " << r;
      EXPECT_EQ(forest.predict(rows.row(r)), ref.mean) << "row " << r;
    }
  }
}

TEST(SimdEval, EveryTierBitExactAcrossAllWorkloadSpaces) {
  // Every prediction entry point, at every tier, serial and pooled, on the
  // paper's full problem set: pool scoring, single rows and permutation
  // importance against the tree-walk reference, and the OOB pass against
  // itself. 300 rows make two row blocks, so the pool really runs.
  util::ThreadPool pool(3);
  for (const auto& name : workloads::all_names()) {
    SCOPED_TRACE(name);
    const auto workload = workloads::make_workload(name);
    util::Rng rng(0x51D + std::hash<std::string>{}(name) % 1000);
    const Dataset train = space_dataset(*workload, 300, rng);
    const Dataset holdout = space_dataset(*workload, 300, rng);

    ForestConfig cfg;
    cfg.num_trees = 11;
    cfg.compute_oob = true;
    util::Rng fit_rng(17);
    RandomForest forest;
    forest.fit(train, cfg, fit_rng);
    ASSERT_FALSE(forest.flat().empty());

    FeatureMatrix probes =
        FeatureMatrix::with_capacity(holdout.num_features(), holdout.size());
    for (std::size_t i = 0; i < holdout.size(); ++i) {
      probes.add_row(holdout.row(i));
    }
    std::vector<PredictionStats> reference(probes.num_rows());
    for (std::size_t i = 0; i < probes.num_rows(); ++i) {
      reference[i] = forest.predict_stats_reference(probes.row(i));
    }
    util::Rng ref_perm_rng(5);
    const std::vector<double> ref_importance =
        reference_importance(forest, holdout, ref_perm_rng);

    for (const simd::Level level : available_levels()) {
      SCOPED_TRACE(simd::level_name(level));
      LevelGuard guard(level);
      for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                  &pool}) {
        SCOPED_TRACE(p == nullptr ? "serial" : "pooled");
        const auto batch = forest.predict_stats_batch(probes, p);
        for (std::size_t i = 0; i < probes.num_rows(); ++i) {
          EXPECT_EQ(batch[i].mean, reference[i].mean);
          EXPECT_EQ(batch[i].variance, reference[i].variance);
        }
        util::Rng perm_rng(5);
        EXPECT_EQ(forest.permutation_importance(holdout, perm_rng, p),
                  ref_importance);
        RandomForest refit;
        util::Rng refit_rng(17);
        refit.fit(train, cfg, refit_rng, p);
        EXPECT_EQ(refit.oob_rmse(), forest.oob_rmse());
      }
      for (std::size_t i = 0; i < probes.num_rows(); ++i) {
        const PredictionStats one = forest.predict_stats(probes.row(i));
        EXPECT_EQ(one.mean, reference[i].mean);
        EXPECT_EQ(one.variance, reference[i].variance);
        EXPECT_EQ(forest.predict(probes.row(i)), reference[i].mean);
      }
    }
  }
}

TEST(SimdEval, RoutingEquivalentAcrossAllWorkloadSpacesAndTiers) {
  // The compile contract, tree by tree, on the paper's full problem set:
  // every row reaches the leaf DecisionTree::predict reaches, in every
  // tree, at every dispatch level, whether row blocks run serially or
  // concurrently on the pool. The 8-byte layout with its side tables is
  // also smaller than the node tables it compiles.
  constexpr std::size_t kRows = 300;  // one full row block and a partial one
  constexpr std::size_t kBlock = FlatForest::kRowBlock;
  constexpr std::size_t kBlocks = (kRows + kBlock - 1) / kBlock;
  util::ThreadPool pool(3);
  for (const auto& name : workloads::all_names()) {
    SCOPED_TRACE(name);
    const auto workload = workloads::make_workload(name);
    util::Rng rng(0x0A7 + std::hash<std::string>{}(name) % 1000);
    const Dataset train = space_dataset(*workload, 70, rng);

    std::vector<DecisionTree> trees(9);
    std::size_t tree_nodes = 0;
    std::size_t tree_bytes = 0;
    util::Rng fit_rng(23);
    for (auto& tree : trees) {
      tree.fit(train, fit_rng.bootstrap_indices(train.size()), TreeConfig{},
               fit_rng);
      tree_nodes += tree.num_nodes();
      tree_bytes += tree.memory_bytes();
    }
    FlatForest flat;
    ASSERT_TRUE(flat.build(trees));
    EXPECT_EQ(flat.num_trees(), trees.size());
    EXPECT_EQ(flat.num_nodes(), tree_nodes);
    EXPECT_LT(flat.memory_bytes(), tree_bytes);

    const auto& space = workload->space();
    FeatureMatrix probes =
        FeatureMatrix::with_capacity(space.num_params(), kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      space.write_features(space.random_config(rng), probes.append_row());
    }
    std::vector<double> expect(trees.size() * kRows);  // tree-major
    for (std::size_t t = 0; t < trees.size(); ++t) {
      for (std::size_t r = 0; r < kRows; ++r) {
        expect[t * kRows + r] = trees[t].predict(probes.row(r));
      }
    }

    for (const simd::Level level : available_levels()) {
      SCOPED_TRACE(simd::level_name(level));
      LevelGuard guard(level);
      for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                  &pool}) {
        SCOPED_TRACE(p == nullptr ? "serial" : "pooled");
        std::vector<std::vector<double>> out(kBlocks);
        const auto run_block = [&](std::size_t b) {
          const std::size_t begin = b * kBlock;
          const std::size_t n = std::min(kBlock, kRows - begin);
          out[b].assign(trees.size() * n, 0.0);
          flat.predict_block(probes.row(begin).data(), probes.num_cols(), n,
                             out[b]);
        };
        if (p == nullptr) {
          for (std::size_t b = 0; b < kBlocks; ++b) run_block(b);
        } else {
          p->parallel_for(0, kBlocks, run_block);
        }
        for (std::size_t b = 0; b < kBlocks; ++b) {
          const std::size_t begin = b * kBlock;
          const std::size_t n = std::min(kBlock, kRows - begin);
          for (std::size_t t = 0; t < trees.size(); ++t) {
            for (std::size_t r = 0; r < n; ++r) {
              EXPECT_EQ(out[b][t * n + r], expect[t * kRows + begin + r])
                  << "tree " << t << ", row " << begin + r;
            }
          }
        }
      }
      std::vector<double> per_tree(trees.size());
      for (std::size_t r = 0; r < kRows; ++r) {
        flat.predict_per_tree(probes.row(r), per_tree);
        for (std::size_t t = 0; t < trees.size(); ++t) {
          EXPECT_EQ(per_tree[t], expect[t * kRows + r])
              << "tree " << t << ", row " << r;
        }
      }
    }
  }
}

TEST(SimdEval, GoldenFixtureAgreesAtEveryTier) {
  const std::string path =
      std::string(PWU_TEST_DATA_DIR) + "/golden_forest_v0.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path;
  std::string t1, t2, t3;
  ASSERT_TRUE(in >> t1 >> t2 >> t3);
  ASSERT_EQ(t2, "MODEL");
  RandomForest forest;
  forest.load(in);
  ASSERT_FALSE(forest.flat().empty());

  ASSERT_TRUE(in >> t1 >> t2 >> t3);
  ASSERT_EQ(t2, "PREDICTIONS");
  std::size_t count = 0;
  ASSERT_TRUE(in >> count);
  FeatureMatrix probes = FeatureMatrix::with_capacity(4, count);
  std::vector<double> expected_mean(count);
  std::vector<double> expected_variance(count);
  std::vector<double> row(4);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(in >> row[0] >> row[1] >> row[2] >> row[3] >>
                expected_mean[i] >> expected_variance[i]);
    auto dst = probes.append_row();
    for (std::size_t c = 0; c < 4; ++c) dst[c] = row[c];
  }
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    LevelGuard guard(level);
    const auto out = forest.predict_stats_batch(probes);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i].mean, expected_mean[i]) << "row " << i;
      EXPECT_EQ(out[i].variance, expected_variance[i]) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace pwu::rf
