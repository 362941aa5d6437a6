// The SIMD kernel tiers and the quantized 8-byte layout share one
// contract with the flat engine: any dispatch level and either node
// layout may change throughput only — never a single output bit. These
// tests sweep every compiled tier over adversarial hand-built trees,
// fitted forests on extreme-value data, the full workload registry, and
// the golden pre-overhaul fixture.

#include "rf/simd_eval.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "rf/feature_matrix.hpp"
#include "rf/flat_forest.hpp"
#include "rf/quantized_layout.hpp"
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

// ---- direct kernel tests on hand-built node tables ------------------------
//
// The kernels see raw FlatNode arrays, so adversarial shapes (single leaf,
// right-spine chains deeper than any fitted tree, threshold extremes) can
// be laid out by hand in BFS order (right child = left + 1) without
// coaxing the fitter into producing them.

TEST(SimdEval, SingleLeafTreeAllTiers) {
  const std::vector<FlatNode> nodes = {{3.25, -1, -1}};
  const std::vector<double> rows(17, 0.0);  // 17 rows x 1 col, odd tail
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    std::vector<double> out(17, -1.0);
    simd::flat_tree_kernel(level)(nodes.data(), rows.data(), 1, 17,
                                  out.data());
    for (double v : out) EXPECT_EQ(v, 3.25);
  }
}

TEST(SimdEval, DeepRightSpineChainAllTiers) {
  // 40 levels of "feature 0 <= i ? leaf : deeper": a row with value v lands
  // on the leaf for floor(v)+1 (clamped), exercising lanes that finish many
  // levels apart and the full-lane leaf blend.
  constexpr int kDepth = 40;
  std::vector<FlatNode> nodes;
  for (int i = 0; i < kDepth; ++i) {
    FlatNode split;
    split.feature = 0;
    split.payload = static_cast<double>(i);
    split.left = static_cast<std::int32_t>(nodes.size()) + 1;
    nodes.push_back(split);                       // index 2i
    nodes.push_back({100.0 + i, -1, -1});         // left leaf, index 2i+1
    // right child = 2i+2 = the next split (or the final leaf below)
  }
  nodes.push_back({999.0, -1, -1});
  ASSERT_EQ(nodes.size(), 2u * kDepth + 1);
  // BFS indexing fix-up: the loop above built a left-leaning array where
  // right = left + 1 only holds if the next split immediately follows the
  // leaf — which it does: split i at 2i, leaf at 2i+1, split i+1 at 2i+2.
  std::vector<double> rows;
  std::vector<double> expect;
  for (int r = 0; r < 27; ++r) {
    const double v = static_cast<double>(r) - 3.5;  // negatives, .5 offsets
    rows.push_back(v);
    int i = 0;
    while (i < kDepth && !(v <= static_cast<double>(i))) ++i;
    expect.push_back(i < kDepth ? 100.0 + i : 999.0);
  }
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    std::vector<double> out(rows.size(), -1.0);
    simd::flat_tree_kernel(level)(nodes.data(), rows.data(), 1, rows.size(),
                                  out.data());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(out[r], expect[r]) << "row " << r;
    }
  }
}

TEST(SimdEval, ThresholdExtremesRouteIdenticallyAllTiers) {
  // One split on feature 1 at threshold 0.0; probes hit +-0.0, denormals,
  // +-DBL_MAX, and values on both sides of the boundary. 3-wide rows make
  // the stride gather arithmetic non-trivial.
  const std::vector<FlatNode> nodes = {
      {0.0, 1, 1}, {-1.0, -1, -1}, {+1.0, -1, -1}};
  const std::vector<double> probes = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 1e-300, -1e-300, 0.5, -0.5};
  std::vector<double> rows;
  for (const double p : probes) {
    rows.push_back(1e9);  // feature 0: must be ignored
    rows.push_back(p);
    rows.push_back(-1e9);
  }
  std::vector<double> reference(probes.size());
  for (std::size_t r = 0; r < probes.size(); ++r) {
    reference[r] = probes[r] <= 0.0 ? -1.0 : +1.0;
  }
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    std::vector<double> out(probes.size(), 0.0);
    simd::flat_tree_kernel(level)(nodes.data(), rows.data(), 3,
                                  probes.size(), out.data());
    for (std::size_t r = 0; r < probes.size(); ++r) {
      EXPECT_EQ(out[r], reference[r]) << "probe " << probes[r];
    }
  }
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

TEST(SimdEval, EveryTierBitExactAcrossAllWorkloadSpaces) {
  util::ThreadPool pool(3);
  for (const auto& name : workloads::all_names()) {
    SCOPED_TRACE(name);
    const auto workload = workloads::make_workload(name);
    util::Rng rng(0x51D + std::hash<std::string>{}(name) % 1000);
    const Dataset train = space_dataset(*workload, 70, rng);

    ForestConfig cfg;
    cfg.num_trees = 11;
    util::Rng fit_rng(17);
    RandomForest forest;
    forest.fit(train, cfg, fit_rng);

    const auto& space = workload->space();
    FeatureMatrix probes = FeatureMatrix::with_capacity(space.num_params(), 90);
    for (std::size_t i = 0; i < 90; ++i) {
      space.write_features(space.random_config(rng), probes.append_row());
    }

    std::vector<PredictionStats> reference(probes.num_rows());
    for (std::size_t i = 0; i < probes.num_rows(); ++i) {
      reference[i] = forest.predict_stats_reference(probes.row(i));
    }
    for (const simd::Level level : available_levels()) {
      SCOPED_TRACE(simd::level_name(level));
      LevelGuard guard(level);
      const auto serial = forest.predict_stats_batch(probes);
      const auto parallel = forest.predict_stats_batch(probes, &pool);
      for (std::size_t i = 0; i < probes.num_rows(); ++i) {
        EXPECT_EQ(serial[i].mean, reference[i].mean);
        EXPECT_EQ(serial[i].variance, reference[i].variance);
        EXPECT_EQ(parallel[i].mean, reference[i].mean);
        EXPECT_EQ(parallel[i].variance, reference[i].variance);
      }
    }
  }
}

TEST(QuantizedForest, RoutingEquivalentAcrossAllWorkloadSpacesAndTiers) {
  // The compaction contract: 8-byte nodes with rank-coded thresholds agree
  // with the 16-byte layout label for label — every mean and variance bit
  // — on the paper's full problem set, at every dispatch level.
  util::ThreadPool pool(3);
  for (const auto& name : workloads::all_names()) {
    SCOPED_TRACE(name);
    const auto workload = workloads::make_workload(name);
    util::Rng rng(0x0A7 + std::hash<std::string>{}(name) % 1000);
    const Dataset train = space_dataset(*workload, 70, rng);

    ForestConfig cfg;
    cfg.num_trees = 9;
    util::Rng fit_rng(23);
    RandomForest forest;
    forest.fit(train, cfg, fit_rng);

    QuantizedForest quant;
    ASSERT_TRUE(quant.build(forest.flat()));
    EXPECT_EQ(quant.num_trees(), forest.flat().num_trees());
    EXPECT_EQ(quant.num_nodes(), forest.flat().num_nodes());
    // The whole point of the compaction: half the node bytes. (The total
    // footprint also carries the threshold codebooks and the leaf-value
    // table, so on tiny leaf-heavy forests it can exceed the flat layout;
    // the node-array halving is the invariant, the side tables are bounded
    // by one double per leaf plus one per distinct threshold.)
    EXPECT_EQ(quant.nodes().size() * sizeof(QuantNode),
              forest.flat().nodes().size() * sizeof(rf::FlatNode) / 2);
    EXPECT_LE(quant.memory_bytes(),
              forest.flat().memory_bytes() + forest.flat().memory_bytes() / 2);

    const auto& space = workload->space();
    FeatureMatrix probes =
        FeatureMatrix::with_capacity(space.num_params(), 100);
    for (std::size_t i = 0; i < 100; ++i) {
      space.write_features(space.random_config(rng), probes.append_row());
    }

    for (const simd::Level level : available_levels()) {
      SCOPED_TRACE(simd::level_name(level));
      LevelGuard guard(level);
      std::vector<PredictionStats> full(probes.num_rows());
      std::vector<PredictionStats> compact(probes.num_rows());
      forest.flat().predict_stats(probes, full);
      quant.predict_stats(probes, compact);
      std::vector<PredictionStats> compact_mt(probes.num_rows());
      quant.predict_stats(probes, compact_mt, &pool);
      for (std::size_t i = 0; i < probes.num_rows(); ++i) {
        EXPECT_EQ(compact[i].mean, full[i].mean);
        EXPECT_EQ(compact[i].variance, full[i].variance);
        EXPECT_EQ(compact_mt[i].mean, full[i].mean);
        EXPECT_EQ(compact_mt[i].variance, full[i].variance);
      }
    }
  }
}

TEST(QuantizedForest, GoldenFixtureAgreesAtEveryTier) {
  const std::string path =
      std::string(PWU_TEST_DATA_DIR) + "/golden_forest_v0.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path;
  std::string t1, t2, t3;
  ASSERT_TRUE(in >> t1 >> t2 >> t3);
  ASSERT_EQ(t2, "MODEL");
  RandomForest forest;
  forest.load(in);

  QuantizedForest quant;
  ASSERT_TRUE(quant.build(forest.flat()));

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
    std::vector<PredictionStats> out(count);
    quant.predict_stats(probes, out);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i].mean, expected_mean[i]) << "row " << i;
      EXPECT_EQ(out[i].variance, expected_variance[i]) << "row " << i;
    }
  }
}

TEST(QuantizedForest, ExtremeValueForestSurvivesCompaction) {
  // Labels and features spanning ~600 orders of magnitude: rank coding
  // must reproduce the exact threshold doubles (no midpoint snapping), so
  // even pathological split values round-trip.
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
  RandomForest forest;
  forest.fit(data, cfg, rng);

  QuantizedForest quant;
  ASSERT_TRUE(quant.build(forest.flat()));

  FeatureMatrix probes = FeatureMatrix::with_capacity(2, 64);
  for (int i = 0; i < 64; ++i) {
    auto dst = probes.append_row();
    dst[0] = std::ldexp(rng.uniform(0.5, 1.0),
                              static_cast<int>(rng.uniform_int(-300, 300)));
    dst[1] = rng.uniform(-1e9, 1e9);
  }
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    LevelGuard guard(level);
    std::vector<PredictionStats> full(64), compact(64);
    forest.flat().predict_stats(probes, full);
    quant.predict_stats(probes, compact);
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_EQ(compact[i].mean, full[i].mean);
      EXPECT_EQ(compact[i].variance, full[i].variance);
    }
  }
}

TEST(QuantizedForest, EmptyAndErrorPaths) {
  QuantizedForest quant;
  EXPECT_TRUE(quant.empty());
  EXPECT_FALSE(quant.build(FlatForest{}));  // nothing to compact
  EXPECT_TRUE(quant.empty());

  util::Rng rng(7);
  Dataset data(1);
  for (int i = 0; i < 30; ++i) {
    data.add(std::vector<double>{rng.uniform(0.0, 1.0)},
             rng.uniform(0.0, 1.0));
  }
  ForestConfig cfg;
  cfg.num_trees = 3;
  RandomForest forest;
  forest.fit(data, cfg, rng);
  ASSERT_TRUE(quant.build(forest.flat()));
  EXPECT_FALSE(quant.empty());

  std::vector<PredictionStats> wrong(2);
  const FeatureMatrix rows = FeatureMatrix::from_rows({{0.5}});
  EXPECT_THROW(quant.predict_stats(rows, wrong), std::invalid_argument);
  quant.clear();
  std::vector<PredictionStats> one(1);
  EXPECT_THROW(quant.predict_stats(rows, one), std::logic_error);
}

}  // namespace
}  // namespace pwu::rf
