// Cross-product robustness sweep: every sampling strategy must drive a
// complete, invariant-respecting Algorithm-1 run on workloads of every
// flavour (numeric kernel, categorical-heavy application, synthetic).

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <unordered_set>

#include "core/active_learner.hpp"
#include "space/pool.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace pwu::core {
namespace {

struct MatrixCase {
  std::string workload;
  std::string strategy;
};

// Names the case in test IDs; without it gtest prints the struct's raw
// bytes, heap pointers included, and the ctest IDs change from build to
// build.
void PrintTo(const MatrixCase& c, std::ostream* os) {
  *os << c.workload << '/' << c.strategy;
}

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (const char* workload : {"gesummv", "kripke", "hypre", "stencil3d"}) {
    for (const char* strategy : {"pwu", "pbus", "maxu", "bestperf", "brs",
                                 "random", "cv", "egreedy", "ei", "diverse"}) {
      cases.push_back({workload, strategy});
    }
  }
  return cases;
}

class StrategyWorkloadMatrix
    : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(StrategyWorkloadMatrix, CompletesWithInvariants) {
  const MatrixCase& param = GetParam();
  const auto workload = workloads::make_workload(param.workload);
  util::Rng rng(99);
  const auto split =
      space::make_pool_split(workload->space(), 160, 90, rng);
  const TestSet test = build_test_set(*workload, split.test, rng);

  LearnerConfig cfg;
  cfg.n_init = 8;
  cfg.n_max = 24;
  cfg.forest.num_trees = 10;
  cfg.eval_every = 8;
  ActiveLearner learner(*workload, cfg);

  StrategyPtr strategy = make_strategy(param.strategy, 0.05);
  util::Rng run_rng(7);
  const auto result = learner.run(*strategy, split.pool, test, run_rng);

  // Budget hit exactly, no duplicate evaluations, finite metrics, CC sums.
  EXPECT_EQ(result.train_configs.size(), 24u);
  std::unordered_set<space::Configuration, space::ConfigurationHash> seen;
  for (const auto& c : result.train_configs) {
    EXPECT_TRUE(seen.insert(c).second);
  }
  for (const auto& rec : result.trace) {
    EXPECT_TRUE(std::isfinite(rec.top_alpha_rmse.at(0)));
    EXPECT_GT(rec.cumulative_cost, 0.0);
  }
  EXPECT_NEAR(result.trace.back().cumulative_cost,
              cumulative_cost(result.train_labels), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, StrategyWorkloadMatrix, ::testing::ValuesIn(matrix_cases()),
    [](const auto& info) {
      return info.param.workload + "_" + info.param.strategy;
    });

}  // namespace
}  // namespace pwu::core
