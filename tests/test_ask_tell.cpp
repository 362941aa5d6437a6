// AskTellSession — state-machine semantics of the inverted Algorithm 1,
// checkpoint/resume bit-identity, and the subsystem's acceptance property:
// a session driven via ask/tell for >= 50 samples reproduces the exact
// training set of the equivalent core::ActiveLearner::run.

#include "service/ask_tell_session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/active_learner.hpp"
#include "core/metrics.hpp"
#include "core/sampling_strategy.hpp"
#include "throwing_contract_scope.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace pwu::service {
namespace {

class AskTellSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = workloads::make_quadratic_bowl(4, 8, 0.1, /*noisy=*/true);
    util::Rng rng(11);
    const auto split =
        space::make_pool_split(workload_->space(), 300, 0, rng);
    pool_ = split.pool;
  }

  core::LearnerConfig small_config() {
    core::LearnerConfig cfg;
    cfg.n_init = 8;
    cfg.n_batch = 2;
    cfg.n_max = 24;
    cfg.forest.num_trees = 10;
    return cfg;
  }

  /// Plays the client role: measures every asked candidate and tells the
  /// label back, in ask order.
  void drive_to_completion(AskTellSession& session, util::Rng& measure_rng) {
    while (!session.done()) {
      for (const Candidate& c : session.ask()) {
        session.tell(c.config, workload_->measure(c.config, measure_rng, 1));
      }
    }
  }

  workloads::WorkloadPtr workload_;
  std::vector<space::Configuration> pool_;
};

TEST_F(AskTellSessionTest, ColdStartPhaseAndFirstAsk) {
  AskTellSession session(workload_->space(), StrategySpec{}, small_config(),
                         pool_, /*seed=*/5);
  EXPECT_EQ(session.phase(), SessionPhase::ColdStart);
  EXPECT_EQ(session.num_labeled(), 0u);
  EXPECT_EQ(session.model(), nullptr);

  const auto batch = session.ask();
  ASSERT_EQ(batch.size(), 8u);  // n_init uniform picks
  EXPECT_EQ(session.phase(), SessionPhase::AwaitingTells);
  for (const Candidate& c : batch) {
    EXPECT_FALSE(c.has_prediction);  // no surrogate yet
    EXPECT_EQ(c.iteration, 0u);
  }
}

TEST_F(AskTellSessionTest, AskWhileBatchOutstandingThrows) {
  AskTellSession session(workload_->space(), StrategySpec{}, small_config(),
                         pool_, 5);
  (void)session.ask();
  EXPECT_THROW(session.ask(), std::logic_error);
}

TEST_F(AskTellSessionTest, TellOfUnknownConfigurationThrows) {
  AskTellSession session(workload_->space(), StrategySpec{}, small_config(),
                         pool_, 5);
  EXPECT_THROW(session.tell(pool_.front(), 1.0), std::invalid_argument);
}

TEST_F(AskTellSessionTest, BatchCompletionMakesRefitDue) {
  AskTellSession session(workload_->space(), StrategySpec{}, small_config(),
                         pool_, 5);
  util::Rng measure_rng(77);
  const auto batch = session.ask();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool completed = session.tell(
        batch[i].config,
        workload_->measure(batch[i].config, measure_rng, 1));
    EXPECT_EQ(completed, i + 1 == batch.size());
  }
  EXPECT_TRUE(session.refit_due());
  EXPECT_EQ(session.phase(), SessionPhase::Ready);
  EXPECT_TRUE(session.refit());
  EXPECT_FALSE(session.refit_due());
  ASSERT_NE(session.model(), nullptr);
  EXPECT_TRUE(session.model()->fitted());
}

TEST_F(AskTellSessionTest, StrategyBatchesCarryPredictions) {
  AskTellSession session(workload_->space(), StrategySpec{}, small_config(),
                         pool_, 5);
  util::Rng measure_rng(77);
  for (const Candidate& c : session.ask()) {
    session.tell(c.config, workload_->measure(c.config, measure_rng, 1));
  }
  const auto batch = session.ask();  // refits implicitly, then selects
  ASSERT_EQ(batch.size(), 2u);       // n_batch
  for (const Candidate& c : batch) {
    EXPECT_TRUE(c.has_prediction);
    EXPECT_GE(c.predicted_stddev, 0.0);
    EXPECT_EQ(c.iteration, 1u);
    EXPECT_TRUE(std::isfinite(c.predicted_mean));
  }
}

TEST_F(AskTellSessionTest, RunsToBudgetWithExactAccounting) {
  const auto cfg = small_config();
  AskTellSession session(workload_->space(), StrategySpec{}, cfg, pool_, 5);
  util::Rng measure_rng(77);
  drive_to_completion(session, measure_rng);
  EXPECT_EQ(session.phase(), SessionPhase::Done);
  EXPECT_EQ(session.num_labeled(), cfg.n_max);
  EXPECT_EQ(session.train_configs().size(), cfg.n_max);
  EXPECT_EQ(session.train_labels().size(), cfg.n_max);
  EXPECT_EQ(session.pool_remaining(), pool_.size() - cfg.n_max);
  // cold start carries no selection records; every strategy pick does
  EXPECT_EQ(session.selections().size(), cfg.n_max - cfg.n_init);
  EXPECT_GT(session.cumulative_cost(), 0.0);
  EXPECT_TRUE(std::isfinite(session.best_observed()));
  EXPECT_TRUE(session.ask().empty());  // done sessions hand out nothing
}

TEST_F(AskTellSessionTest, ExplicitAskCountOverridesBatchSize) {
  AskTellSession session(workload_->space(), StrategySpec{}, small_config(),
                         pool_, 5);
  util::Rng measure_rng(77);
  for (const Candidate& c : session.ask()) {
    session.tell(c.config, workload_->measure(c.config, measure_rng, 1));
  }
  EXPECT_EQ(session.ask(5).size(), 5u);
}

TEST_F(AskTellSessionTest, PoolSmallerThanColdStartThrows) {
  auto cfg = small_config();
  std::vector<space::Configuration> tiny(pool_.begin(), pool_.begin() + 4);
  EXPECT_THROW(
      AskTellSession(workload_->space(), StrategySpec{}, cfg, tiny, 5),
      std::invalid_argument);
}

TEST_F(AskTellSessionTest, SaveRequiresOwnedStrategy) {
  const auto strategy = core::make_strategy("pwu", 0.05);
  AskTellSession session(workload_->space(), *strategy, small_config(),
                         pool_, /*warm_start=*/nullptr, 5);
  std::ostringstream os;
  EXPECT_THROW(session.save(os), std::logic_error);
}

TEST_F(AskTellSessionTest, CheckpointResumeContinuesBitIdentically) {
  const auto cfg = small_config();
  AskTellSession live(workload_->space(), StrategySpec{}, cfg, pool_, 5);
  util::Rng measure_rng(77);

  // Label half the budget, then checkpoint with no batch outstanding.
  while (live.num_labeled() < cfg.n_max / 2) {
    for (const Candidate& c : live.ask()) {
      live.tell(c.config, workload_->measure(c.config, measure_rng, 1));
    }
  }
  live.refit();
  std::stringstream ckpt;
  live.save(ckpt);
  AskTellSession resumed = AskTellSession::restore(workload_->space(), ckpt);
  EXPECT_EQ(resumed.num_labeled(), live.num_labeled());
  EXPECT_EQ(resumed.pool_remaining(), live.pool_remaining());
  EXPECT_EQ(resumed.iteration(), live.iteration());

  // Both finish from the same measurement stream position.
  util::Rng measure_rng_resumed = measure_rng;
  drive_to_completion(live, measure_rng);
  drive_to_completion(resumed, measure_rng_resumed);

  EXPECT_EQ(live.train_labels(), resumed.train_labels());
  EXPECT_EQ(live.train_configs().size(), resumed.train_configs().size());
  for (std::size_t i = 0; i < live.train_configs().size(); ++i) {
    EXPECT_EQ(live.train_configs()[i], resumed.train_configs()[i]) << i;
  }
  EXPECT_EQ(live.cumulative_cost(), resumed.cumulative_cost());
}

TEST_F(AskTellSessionTest, CheckpointWithPendingBatchRoundTrips) {
  const auto cfg = small_config();
  AskTellSession live(workload_->space(), StrategySpec{}, cfg, pool_, 5);
  util::Rng measure_rng(77);
  const auto batch = live.ask();
  // Tell half of the cold start, then save mid-batch.
  for (std::size_t i = 0; i < batch.size() / 2; ++i) {
    live.tell(batch[i].config,
              workload_->measure(batch[i].config, measure_rng, 1));
  }
  std::stringstream ckpt;
  live.save(ckpt);
  AskTellSession resumed = AskTellSession::restore(workload_->space(), ckpt);
  EXPECT_EQ(resumed.pending_count(), live.pending_count());
  EXPECT_EQ(resumed.phase(), SessionPhase::AwaitingTells);

  util::Rng measure_rng_resumed = measure_rng;
  for (std::size_t i = batch.size() / 2; i < batch.size(); ++i) {
    live.tell(batch[i].config,
              workload_->measure(batch[i].config, measure_rng, 1));
    resumed.tell(batch[i].config,
                 workload_->measure(batch[i].config, measure_rng_resumed, 1));
  }
  drive_to_completion(live, measure_rng);
  drive_to_completion(resumed, measure_rng_resumed);
  EXPECT_EQ(live.train_labels(), resumed.train_labels());
}

TEST_F(AskTellSessionTest, RestoreRejectsGarbage) {
  std::istringstream bad("not a checkpoint");
  EXPECT_THROW(AskTellSession::restore(workload_->space(), bad),
               std::runtime_error);
}

// ---- ask() split at the scoring pass: plan_ask -> score -> finish_ask ----

/// Drives twin sessions to done(): `whole` through ask(), `split` through
/// plan_ask, its own predict_stats_batch over pool_features(), and
/// finish_ask. Both are told the same labels, so every batch must match
/// config for config and prediction bit for bit.
void expect_split_ask_matches_ask(const workloads::Workload& workload) {
  core::LearnerConfig cfg;
  cfg.n_init = 8;
  cfg.n_batch = 3;
  cfg.n_max = 29;
  cfg.forest.num_trees = 10;
  util::Rng pool_rng(11);
  const auto pool =
      space::make_pool_split(workload.space(), 300, 0, pool_rng).pool;
  AskTellSession whole(workload.space(), StrategySpec{"pwu", 0.05}, cfg, pool,
                       /*seed=*/5);
  AskTellSession split(workload.space(), StrategySpec{"pwu", 0.05}, cfg, pool,
                       /*seed=*/5);
  util::Rng measure_rng(77);
  std::size_t scored_batches = 0;
  while (!whole.done()) {
    const std::vector<Candidate> expected = whole.ask();
    AskPlan plan = split.plan_ask();
    std::vector<Candidate> got;
    if (plan.needs_scores) {
      got = split.finish_ask(
          plan, split.model()->predict_stats_batch(split.pool_features()));
      ++scored_batches;
    } else {
      got = std::move(plan.candidates);
    }
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("batch candidate " + std::to_string(i));
      EXPECT_EQ(got[i].config, expected[i].config);
      EXPECT_EQ(got[i].has_prediction, expected[i].has_prediction);
      EXPECT_EQ(got[i].predicted_mean, expected[i].predicted_mean);
      EXPECT_EQ(got[i].predicted_stddev, expected[i].predicted_stddev);
      EXPECT_EQ(got[i].iteration, expected[i].iteration);
      const double label = workload.measure(expected[i].config, measure_rng, 1);
      whole.tell(expected[i].config, label);
      split.tell(got[i].config, label);
    }
  }
  EXPECT_TRUE(split.done());
  EXPECT_GT(scored_batches, 0u);
  EXPECT_EQ(whole.train_labels(), split.train_labels());
  EXPECT_EQ(whole.iteration(), split.iteration());
}

TEST_F(AskTellSessionTest, PlanScoreFinishMatchesAskOnNumericWorkload) {
  expect_split_ask_matches_ask(*workload_);
}

TEST(AskTellSplit, PlanScoreFinishMatchesAskOnCategoricalWorkload) {
  // kripke's layout and pmethod parameters are categorical, so its trees
  // take the set-membership walk instead of the SIMD kernels.
  expect_split_ask_matches_ask(*workloads::make_workload("kripke"));
}

#if PWU_CONTRACTS_ENABLED

TEST_F(AskTellSessionTest, FinishAskRejectsCompletePlanAndWrongScoreCount) {
  util::ThrowingHandlerScope scope;
  AskTellSession session(workload_->space(), StrategySpec{}, small_config(),
                         pool_, /*seed=*/5);
  util::Rng measure_rng(77);
  // Cold start needs no scores: its plan is already complete.
  const AskPlan cold = session.plan_ask();
  ASSERT_FALSE(cold.needs_scores);
  EXPECT_THROW(session.finish_ask(cold, {}), util::ContractViolation);
  for (const Candidate& c : cold.candidates) {
    session.tell(c.config, workload_->measure(c.config, measure_rng, 1));
  }
  const AskPlan plan = session.plan_ask();
  ASSERT_TRUE(plan.needs_scores);
  std::vector<rf::PredictionStats> stats =
      session.model()->predict_stats_batch(session.pool_features());
  stats.pop_back();
  EXPECT_THROW(session.finish_ask(plan, stats), util::ContractViolation);
}

#else  // !PWU_CONTRACTS_ENABLED

TEST_F(AskTellSessionTest, FinishAskRejectsCompletePlanAndWrongScoreCount) {
  GTEST_SKIP() << "contracts are compiled out (NDEBUG); run the asan or "
                  "tsan preset to exercise them";
}

#endif

// ---- Acceptance property: ask/tell == batch driver, >= 50 samples. ----

TEST(AskTellEquivalence, FiftyPlusSamplesMatchActiveLearnerRun) {
  const auto workload =
      workloads::make_quadratic_bowl(4, 8, 0.1, /*noisy=*/true);
  core::LearnerConfig cfg;
  cfg.n_init = 10;
  cfg.n_batch = 1;
  cfg.n_max = 52;
  cfg.forest.num_trees = 12;
  cfg.eval_every = cfg.n_max;  // evaluation density is irrelevant here

  // Canonical derivation (mirrors core::run_experiment's first repeat).
  util::Rng master(29);
  util::Rng split_rng = master.fork();
  const auto split =
      space::make_pool_split(workload->space(), 400, 100, split_rng);
  const core::TestSet test =
      core::build_test_set(*workload, split.test, split_rng);
  util::Rng run_rng = master.fork();
  util::Rng run_rng_batch = run_rng;  // same stream for the batch driver

  // Service side: the session draws (session_seed, measure_seed) exactly
  // as ActiveLearner::run does from its rng argument.
  const std::uint64_t session_seed = run_rng.next_u64();
  util::Rng measure_rng(run_rng.next_u64());
  AskTellSession session(workload->space(), StrategySpec{"pwu", 0.05}, cfg,
                         split.pool, session_seed);
  std::size_t told = 0;
  while (!session.done()) {
    for (const Candidate& c : session.ask()) {
      session.tell(c.config, workload->measure(c.config, measure_rng, 1));
      ++told;
    }
    session.refit();
  }
  ASSERT_GE(told, 50u);

  // Batch side: one ActiveLearner::run from the pristine stream copy.
  const core::ActiveLearner learner(*workload, cfg);
  const core::LearnerResult batch = learner.run(
      *core::make_strategy("pwu", 0.05), split.pool, test, run_rng_batch);

  ASSERT_EQ(batch.train_configs.size(), session.train_configs().size());
  for (std::size_t i = 0; i < batch.train_configs.size(); ++i) {
    EXPECT_EQ(batch.train_configs[i], session.train_configs()[i]) << i;
  }
  EXPECT_EQ(batch.train_labels, session.train_labels());
}

}  // namespace
}  // namespace pwu::service
