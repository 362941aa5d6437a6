// Diversity-aware batch PWU: scoring follows Eq. 1, but batches spread out
// in feature space instead of piling onto near-duplicates.

#include <gtest/gtest.h>

#include <set>

#include "core/active_learner.hpp"
#include "core/sampling_strategy.hpp"
#include "space/pool.hpp"
#include "workloads/synthetic.hpp"

namespace pwu::core {
namespace {

PoolPrediction clustered_prediction() {
  // Candidates 0-2: one tight cluster of top-score near-duplicates.
  // Candidate 3: slightly lower score, far away.
  // Candidate 4: low score, far away.
  static const rf::FeatureMatrix features =
      rf::FeatureMatrix::from_rows({{0.0, 0.0},
                                    {0.01, 0.0},
                                    {0.0, 0.01},
                                    {1.0, 1.0},
                                    {0.0, 1.0}});
  PoolPrediction p;
  p.mean = {0.10, 0.10, 0.10, 0.12, 0.50};
  p.stddev = {0.20, 0.19, 0.18, 0.15, 0.05};
  p.features = &features;
  return p;
}

TEST(DiversePwu, SingleBatchMatchesPlainPwu) {
  const PoolPrediction p = clustered_prediction();
  util::Rng rng_a(1), rng_b(1);
  EXPECT_EQ(make_diverse_pwu(0.05)->select(p, 1, rng_a),
            make_pwu(0.05)->select(p, 1, rng_b));
}

TEST(DiversePwu, ZeroWeightMatchesPlainPwu) {
  const PoolPrediction p = clustered_prediction();
  util::Rng rng_a(2), rng_b(2);
  EXPECT_EQ(make_diverse_pwu(0.05, 0.0)->select(p, 3, rng_a),
            make_pwu(0.05)->select(p, 3, rng_b));
}

TEST(DiversePwu, MissingFeaturesFallsBackToRanking) {
  PoolPrediction p = clustered_prediction();
  const rf::FeatureMatrix empty;
  for (const rf::FeatureMatrix* features :
       {&empty, static_cast<const rf::FeatureMatrix*>(nullptr)}) {
    p.features = features;
    util::Rng rng_a(3), rng_b(3);
    EXPECT_EQ(make_diverse_pwu(0.05)->select(p, 3, rng_a),
              make_pwu(0.05)->select(p, 3, rng_b));
  }
}

TEST(DiversePwu, BatchAvoidsNearDuplicates) {
  const PoolPrediction p = clustered_prediction();
  util::Rng rng(4);
  const auto picks = make_diverse_pwu(0.05, 2.0)->select(p, 2, rng);
  ASSERT_EQ(picks.size(), 2u);
  // First pick is the top score (candidate 0).
  EXPECT_EQ(picks[0], 0u);
  // Second pick must escape the duplicate cluster {1, 2}.
  EXPECT_TRUE(picks[1] == 3 || picks[1] == 4) << picks[1];
}

TEST(DiversePwu, PlainTopKWouldHaveTakenTheCluster) {
  // Contrast: plain PWU's top-2 is the duplicate pair — the failure mode
  // the diverse variant exists to avoid.
  const PoolPrediction p = clustered_prediction();
  util::Rng rng(5);
  const auto plain = make_pwu(0.05)->select(p, 2, rng);
  EXPECT_EQ(plain[0], 0u);
  EXPECT_EQ(plain[1], 1u);
}

TEST(DiversePwu, DistinctInRangeBatches) {
  const PoolPrediction p = clustered_prediction();
  util::Rng rng(6);
  for (std::size_t batch : {1u, 2u, 3u, 5u}) {
    const auto picks = make_diverse_pwu(0.05)->select(p, batch, rng);
    EXPECT_EQ(picks.size(), batch);
    std::set<std::size_t> set(picks.begin(), picks.end());
    EXPECT_EQ(set.size(), batch);
    for (std::size_t idx : picks) EXPECT_LT(idx, p.size());
  }
}

TEST(DiversePwu, RejectsNegativeWeight) {
  EXPECT_THROW(make_diverse_pwu(0.05, -1.0), std::invalid_argument);
}

TEST(DiversePwu, RunsThroughTheFullLoop) {
  auto workload = workloads::make_quadratic_bowl(3, 8, 0.1, true);
  util::Rng rng(7);
  const auto split = space::make_pool_split(workload->space(), 200, 100, rng);
  const auto test = build_test_set(*workload, split.test, rng);
  LearnerConfig cfg;
  cfg.n_init = 10;
  cfg.n_batch = 5;
  cfg.n_max = 40;
  cfg.forest.num_trees = 10;
  ActiveLearner learner(*workload, cfg);
  const auto result =
      learner.run(*make_diverse_pwu(0.05), split.pool, test, rng);
  EXPECT_EQ(result.train_configs.size(), 40u);
}

}  // namespace
}  // namespace pwu::core
