#include "space/pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

namespace pwu::space {
namespace {

ParameterSpace big_space() {
  ParameterSpace s;
  for (int i = 0; i < 6; ++i) {
    s.add(Parameter::ordinal("t" + std::to_string(i),
                             {1, 16, 32, 64, 128, 256, 512}));
  }
  return s;  // 7^6 = 117649 configs
}

ParameterSpace tiny_space() {
  ParameterSpace s;
  s.add(Parameter::ordinal("a", {0, 1, 2}));
  s.add(Parameter::boolean("b"));
  return s;  // 6 configs
}

TEST(SampleUnique, ProducesDistinctConfigs) {
  const ParameterSpace s = big_space();
  util::Rng rng(1);
  const auto configs = sample_unique(s, 500, rng);
  EXPECT_EQ(configs.size(), 500u);
  std::unordered_set<Configuration, ConfigurationHash> set(configs.begin(),
                                                           configs.end());
  EXPECT_EQ(set.size(), 500u);
  for (const auto& c : configs) EXPECT_TRUE(s.contains(c));
}

TEST(SampleUnique, RejectsMoreThanSpaceSize) {
  const ParameterSpace s = tiny_space();
  util::Rng rng(2);
  EXPECT_THROW(sample_unique(s, 7, rng), std::invalid_argument);
}

TEST(SampleUnique, CanDrainExactSpaceSize) {
  const ParameterSpace s = tiny_space();
  util::Rng rng(3);
  const auto all = sample_unique(s, 6, rng);
  std::unordered_set<Configuration, ConfigurationHash> set(all.begin(),
                                                           all.end());
  EXPECT_EQ(set.size(), 6u);
}

TEST(MakePoolSplit, LargeSpaceSplitSizes) {
  const ParameterSpace s = big_space();
  util::Rng rng(4);
  const PoolSplit split = make_pool_split(s, 700, 300, rng);
  EXPECT_EQ(split.pool.size(), 700u);
  EXPECT_EQ(split.test.size(), 300u);
  // Pool and test are disjoint.
  std::unordered_set<Configuration, ConfigurationHash> pool_set(
      split.pool.begin(), split.pool.end());
  for (const auto& t : split.test) {
    EXPECT_FALSE(pool_set.contains(t));
  }
}

TEST(MakePoolSplit, EnumerableSpaceUsesWholeSpaceProportionally) {
  // kripke/hypre-style small spaces: the whole space is enumerated and
  // split ~70/30.
  const ParameterSpace s = tiny_space();
  util::Rng rng(5);
  const PoolSplit split = make_pool_split(s, 7000, 3000, rng);
  EXPECT_EQ(split.pool.size() + split.test.size(), 6u);
  EXPECT_GE(split.pool.size(), 1u);
  EXPECT_GE(split.test.size(), 1u);
  EXPECT_GT(split.pool.size(), split.test.size());
}

TEST(MakePoolSplit, DifferentSeedsGiveDifferentSplits) {
  const ParameterSpace s = big_space();
  util::Rng rng_a(10);
  util::Rng rng_b(11);
  const PoolSplit a = make_pool_split(s, 50, 20, rng_a);
  const PoolSplit b = make_pool_split(s, 50, 20, rng_b);
  EXPECT_NE(a.pool, b.pool);
}

TEST(CandidatePool, TakeRemovesAndReturns) {
  const ParameterSpace s = tiny_space();
  CandidatePool pool(s.enumerate());
  EXPECT_EQ(pool.size(), 6u);
  const Configuration target = pool.at(2);
  const Configuration taken = pool.take(2);
  EXPECT_EQ(taken, target);
  EXPECT_EQ(pool.size(), 5u);
  // The taken config must no longer be present.
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_NE(pool.at(i), taken);
  }
}

TEST(CandidatePool, TakeOutOfRangeThrows) {
  CandidatePool pool({Configuration({0})});
  EXPECT_THROW(pool.take(1), std::out_of_range);
}

TEST(CandidatePool, SampleIndicesAreDistinctAndInRange) {
  const ParameterSpace s = big_space();
  util::Rng rng(7);
  CandidatePool pool(sample_unique(s, 100, rng));
  const auto indices = pool.sample_indices(10, rng);
  EXPECT_EQ(indices.size(), 10u);
  std::unordered_set<std::size_t> set(indices.begin(), indices.end());
  EXPECT_EQ(set.size(), 10u);
  for (std::size_t i : indices) EXPECT_LT(i, pool.size());
}

TEST(CandidatePool, SampleIndicesRejectsOversizedK) {
  CandidatePool pool({Configuration({0}), Configuration({1})});
  util::Rng rng(8);
  EXPECT_THROW(pool.sample_indices(3, rng), std::invalid_argument);
}

TEST(CandidatePool, DrainCompletely) {
  const ParameterSpace s = tiny_space();
  CandidatePool pool(s.enumerate());
  std::unordered_set<Configuration, ConfigurationHash> taken;
  while (!pool.empty()) {
    taken.insert(pool.take(0));
  }
  EXPECT_EQ(taken.size(), 6u);  // every config exactly once
}

}  // namespace
}  // namespace pwu::space
