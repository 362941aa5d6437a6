// The compiled forest's contract is bit-exactness: compiling trees into the
// rank-coded layout and evaluating in cache-blocked order must change
// performance only — never a single output bit. These tests pin that
// across every workload space in the registry, against a golden forest
// saved by the pre-overhaul implementation, and past the layout's capacity,
// where prediction falls back to the trees' own walk.

#include "rf/flat_forest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "rf/feature_matrix.hpp"
#include "rf/random_forest.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"

#ifndef PWU_TEST_DATA_DIR
#define PWU_TEST_DATA_DIR "tests/data"
#endif

namespace pwu::rf {
namespace {

TEST(FeatureMatrix, RowAccessAndWidthEnforcement) {
  FeatureMatrix m;
  m.add_row(std::vector<double>{1.0, 2.0});
  m.add_row(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(m.num_rows(), 2u);
  EXPECT_EQ(m.num_cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(m.add_row(std::vector<double>{1.0, 2.0, 3.0}),
               std::invalid_argument);
  m.row(0)[1] = 9.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
}

TEST(FeatureMatrix, RemoveRowSwapMirrorsPoolTake) {
  FeatureMatrix m = FeatureMatrix::from_rows({{0.0}, {1.0}, {2.0}, {3.0}});
  m.remove_row_swap(1);  // last row (3) moves into slot 1
  ASSERT_EQ(m.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  m.remove_row_swap(2);  // removing the last row is a plain pop
  ASSERT_EQ(m.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_THROW(m.remove_row_swap(5), std::out_of_range);
}

/// Training set drawn from a workload's own space (so categorical features
/// carry real level indices) with the workload's analytic time as label.
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

TEST(FlatForest, BitExactAcrossAllWorkloadSpaces) {
  // Property over the paper's full benchmark set (12 kernels + kripke +
  // hypre): flat mean AND variance equal the tree-walk reference exactly,
  // scalar and batched, serial and parallel.
  util::ThreadPool pool(3);
  for (const auto& name : workloads::all_names()) {
    SCOPED_TRACE(name);
    const auto workload = workloads::make_workload(name);
    util::Rng rng(0xF1A7 + std::hash<std::string>{}(name) % 1000);
    const Dataset train = space_dataset(*workload, 80, rng);

    ForestConfig cfg;
    cfg.num_trees = 15;
    util::Rng fit_rng(99);
    RandomForest forest;
    forest.fit(train, cfg, fit_rng);

    const auto& space = workload->space();
    // 300 rows make two row blocks, so the parallel half really uses the
    // pool (one block always runs serially).
    FeatureMatrix probes =
        FeatureMatrix::with_capacity(space.num_params(), 300);
    for (std::size_t i = 0; i < 300; ++i) {
      space.write_features(space.random_config(rng), probes.append_row());
    }

    const auto serial = forest.predict_stats_batch(probes);
    const auto parallel = forest.predict_stats_batch(probes, &pool);
    ASSERT_EQ(serial.size(), probes.num_rows());
    for (std::size_t i = 0; i < probes.num_rows(); ++i) {
      const PredictionStats ref =
          forest.predict_stats_reference(probes.row(i));
      const PredictionStats one = forest.predict_stats(probes.row(i));
      // EXPECT_EQ, not NEAR: the contract is bit-identity.
      EXPECT_EQ(one.mean, ref.mean);
      EXPECT_EQ(one.variance, ref.variance);
      EXPECT_EQ(serial[i].mean, ref.mean);
      EXPECT_EQ(serial[i].variance, ref.variance);
      EXPECT_EQ(parallel[i].mean, ref.mean);
      EXPECT_EQ(parallel[i].variance, ref.variance);
    }
  }
}

TEST(FlatForest, CompiledLayoutMatchesTreeWalkPerTree) {
  util::Rng rng(5);
  Dataset data(3);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> row = {rng.uniform(0.0, 4.0),
                                     rng.uniform(0.0, 4.0),
                                     rng.uniform(0.0, 4.0)};
    data.add(row, row[0] * row[1] - row[2]);
  }
  ForestConfig cfg;
  cfg.num_trees = 8;
  util::Rng fit_rng(6);
  RandomForest forest;
  forest.fit(data, cfg, fit_rng);

  const FlatForest& flat = forest.flat();
  EXPECT_EQ(flat.num_trees(), 8u);
  EXPECT_EQ(flat.num_nodes(), forest.total_nodes());

  // The scalar walk and the block evaluator agree tree by tree, and the
  // ensemble mean is their ascending-order average.
  const std::vector<double> probe = {1.5, 2.5, 0.5};
  std::vector<double> per_tree(flat.num_trees());
  std::vector<double> block(flat.num_trees());
  flat.predict_per_tree(probe, per_tree);
  flat.predict_block(probe.data(), probe.size(), 1, block);
  EXPECT_EQ(block, per_tree);
  double sum = 0.0;
  for (double p : per_tree) sum += p;
  EXPECT_EQ(forest.predict(probe), sum / 8.0);
}

TEST(FlatForest, EmptyAndMismatchedInputsThrow) {
  FlatForest flat;
  EXPECT_TRUE(flat.empty());
  const std::vector<double> row = {1.0};
  std::vector<double> none;
  EXPECT_THROW(flat.predict_per_tree(row, none), std::logic_error);
  EXPECT_THROW(flat.predict_block(row.data(), 1, 1, none), std::logic_error);

  util::Rng rng(7);
  Dataset data(1);
  for (int i = 0; i < 30; ++i) {
    data.add(std::vector<double>{rng.uniform(0.0, 1.0)}, rng.uniform(0.0, 1.0));
  }
  ForestConfig cfg;
  cfg.num_trees = 3;
  RandomForest forest;
  forest.fit(data, cfg, rng);
  std::vector<double> small(1);
  EXPECT_THROW(forest.flat().predict_per_tree(row, small),
               std::invalid_argument);
  EXPECT_THROW(forest.flat().predict_block(row.data(), 1, 1, small),
               std::invalid_argument);
}

TEST(FlatForest, EmptyAndErrorPaths) {
  // Compiling no trees leaves nothing to evaluate, an unfitted tree is a
  // caller error that leaves the forest empty, and a compiled forest
  // rejects mis-sized outputs and, once cleared, throws like one never
  // built.
  FlatForest flat;
  EXPECT_TRUE(flat.empty());
  EXPECT_TRUE(flat.build({}));  // zero trees are within capacity
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.num_trees(), 0u);
  const std::vector<DecisionTree> unfitted(2);
  EXPECT_THROW(flat.build(unfitted), std::logic_error);
  EXPECT_TRUE(flat.empty());

  util::Rng rng(7);
  Dataset data(1);
  for (int i = 0; i < 30; ++i) {
    data.add(std::vector<double>{rng.uniform(0.0, 1.0)}, rng.uniform(0.0, 1.0));
  }
  std::vector<DecisionTree> trees(3);
  for (auto& tree : trees) {
    tree.fit(data, rng.bootstrap_indices(data.size()), TreeConfig{}, rng);
  }
  ASSERT_TRUE(flat.build(trees));
  EXPECT_FALSE(flat.empty());
  EXPECT_EQ(flat.num_trees(), 3u);
  EXPECT_GT(flat.memory_bytes(), 0u);

  const std::vector<double> row = {0.5};
  std::vector<double> wrong(2);
  EXPECT_THROW(flat.predict_per_tree(row, wrong), std::invalid_argument);
  EXPECT_THROW(flat.predict_block(row.data(), 1, 1, wrong),
               std::invalid_argument);
  std::vector<double> three(3);
  flat.predict_per_tree(row, three);
  for (std::size_t t = 0; t < trees.size(); ++t) {
    EXPECT_EQ(three[t], trees[t].predict(row)) << "tree " << t;
  }

  flat.clear();
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.memory_bytes(), 0u);
  EXPECT_THROW(flat.predict_per_tree(row, three), std::logic_error);
  EXPECT_THROW(flat.predict_block(row.data(), 1, 1, three), std::logic_error);
}

TEST(FlatForest, PastCodeCapacityFallsBackToTreeWalkBitExact) {
  // 70,000 distinct values of one feature, labels y = x: each fully grown
  // tree splits between every pair of neighbouring in-bag values, and
  // three bootstraps together hold far more than the 65,536 distinct
  // thresholds a 16-bit code indexes. The forest cannot compile, and every
  // entry point must fall back to the trees' own walk, bit for bit.
  constexpr int kRows = 70000;
  Dataset data(1);
  for (int i = 0; i < kRows; ++i) {
    const double x = static_cast<double>(i);
    data.add(std::vector<double>{x}, x);
  }
  ForestConfig cfg;
  cfg.num_trees = 3;
  cfg.compute_oob = true;
  util::Rng fit_rng(65537);
  RandomForest forest;
  forest.fit(data, cfg, fit_rng);
  ASSERT_TRUE(forest.flat().empty());
  ASSERT_EQ(forest.flat().memory_bytes(), 0u);

  util::Rng rng(8);
  Dataset holdout(1);
  FeatureMatrix probes = FeatureMatrix::with_capacity(1, 600);
  for (int i = 0; i < 600; ++i) {
    const double x = i == 17 ? std::nan("") : rng.uniform(-10.0, kRows + 10.0);
    probes.add_row(std::vector<double>{x});
    if (!std::isnan(x)) holdout.add(std::vector<double>{x}, x);
  }
  util::ThreadPool pool(3);
  const auto serial = forest.predict_stats_batch(probes);
  const auto pooled = forest.predict_stats_batch(probes, &pool);
  for (std::size_t i = 0; i < probes.num_rows(); ++i) {
    const PredictionStats ref = forest.predict_stats_reference(probes.row(i));
    const PredictionStats one = forest.predict_stats(probes.row(i));
    EXPECT_EQ(serial[i].mean, ref.mean) << "row " << i;
    EXPECT_EQ(serial[i].variance, ref.variance) << "row " << i;
    EXPECT_EQ(pooled[i].mean, ref.mean) << "row " << i;
    EXPECT_EQ(pooled[i].variance, ref.variance) << "row " << i;
    EXPECT_EQ(one.mean, ref.mean) << "row " << i;
    EXPECT_EQ(one.variance, ref.variance) << "row " << i;
    EXPECT_EQ(forest.predict(probes.row(i)), ref.mean) << "row " << i;
  }

  // The OOB pass and permutation importance run on the fallback too.
  EXPECT_TRUE(std::isfinite(forest.oob_rmse()));
  EXPECT_LT(forest.oob_rmse(), 10.0);
  util::Rng perm_rng(9);
  const auto importance =
      forest.permutation_importance(holdout, perm_rng, &pool);
  ASSERT_EQ(importance.size(), 1u);
  EXPECT_GT(importance[0], 1e6);  // permuting x destroys y = x
}

TEST(FlatForest, GoldenPreOverhaulForestPredictsIdentically) {
  // Fixture captured before the flat-engine/presorted-fitter overhaul: a
  // forest saved by the old implementation (mixed numerical/categorical
  // splits) plus 40 probe rows with its predict_stats outputs at full
  // precision. Loading it today must reproduce every double exactly —
  // the serialized-model compatibility guarantee checkpoint/resume
  // depends on.
  const std::string path =
      std::string(PWU_TEST_DATA_DIR) + "/golden_forest_v0.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path;

  std::string t1, t2, t3;
  ASSERT_TRUE(in >> t1 >> t2 >> t3);
  ASSERT_EQ(t2, "MODEL");

  RandomForest forest;
  forest.load(in);
  EXPECT_EQ(forest.num_trees(), 7u);

  ASSERT_TRUE(in >> t1 >> t2 >> t3);
  ASSERT_EQ(t2, "PREDICTIONS");
  std::size_t count = 0;
  ASSERT_TRUE(in >> count);
  ASSERT_GT(count, 0u);

  std::vector<double> row(4);
  for (std::size_t i = 0; i < count; ++i) {
    double expected_mean = 0.0, expected_variance = 0.0;
    ASSERT_TRUE(in >> row[0] >> row[1] >> row[2] >> row[3] >>
                expected_mean >> expected_variance)
        << "truncated fixture at row " << i;
    const PredictionStats flat = forest.predict_stats(row);
    const PredictionStats ref = forest.predict_stats_reference(row);
    EXPECT_EQ(flat.mean, expected_mean) << "row " << i;
    EXPECT_EQ(flat.variance, expected_variance) << "row " << i;
    EXPECT_EQ(ref.mean, expected_mean) << "row " << i;
    EXPECT_EQ(ref.variance, expected_variance) << "row " << i;
  }
}

}  // namespace
}  // namespace pwu::rf
