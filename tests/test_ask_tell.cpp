// AskTellSession — state-machine semantics of the inverted Algorithm 1,
// checkpoint/resume bit-identity, and the subsystem's acceptance property:
// a session driven via ask/tell for >= 50 samples reproduces the exact
// training set of the equivalent core::ActiveLearner::run.

#include "service/ask_tell_session.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/active_learner.hpp"
#include "core/metrics.hpp"
#include "core/sampling_strategy.hpp"
#include "service/session_manager.hpp"
#include "sim/executor.hpp"
#include "sim/fault_model.hpp"
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

// ---- Value-by-value pin of every ask/tell step. ----
//
// One 64-bit FNV-1a digest over scripted runs of the three classes that
// implement Algorithm 1's steps: AskTellSession (fresh, split, explicit-count
// and degraded asks; successful, retried, dropped and censored tells),
// SessionManager (failure tells, auto-checkpoint, eviction, drain and resume
// images) and ActiveLearner (run, run_warm, run_with_executor). Every
// candidate's levels, prediction bits, iteration and failure count, every
// outcome field, every checkpoint byte and every trace/selection bit feeds
// the digest, so any change in behaviour — a different rng draw, a
// reordered pending batch, one ulp in a prediction — changes the value.

class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void config(const space::Configuration& c) {
    u64(c.size());
    for (std::uint32_t level : c.levels()) u64(level);
  }
  void candidate(const Candidate& c) {
    config(c.config);
    u64(c.has_prediction ? 1 : 0);
    f64(c.predicted_mean);
    f64(c.predicted_stddev);
    u64(c.iteration);
    u64(c.failures);
  }
  void file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      u64(~0ULL);  // not written yet
      return;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    str(contents.str());
  }
  void learner_result(const core::LearnerResult& result) {
    u64(result.trace.size());
    for (const core::IterationRecord& rec : result.trace) {
      u64(rec.num_samples);
      f64(rec.cumulative_cost);
      for (double rmse : rec.top_alpha_rmse) f64(rmse);
      f64(rec.full_rmse);
    }
    u64(result.selections.size());
    for (const core::SelectionRecord& sel : result.selections) {
      u64(sel.iteration);
      f64(sel.predicted_mean);
      f64(sel.predicted_stddev);
      f64(sel.measured);
    }
    u64(result.train_configs.size());
    for (const auto& c : result.train_configs) config(c);
    for (double label : result.train_labels) f64(label);
    u64(result.failed_configs);
    u64(result.transient_retries);
    f64(result.failure_cost);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Scripted session: a degraded random ask during cold start, the cold-start
/// top-up, then rounds cycling through ask(), plan/score/finish, a degraded
/// ask scored by a one-round-stale model, and an explicit-count ask.
/// Candidates fail on a fixed schedule: crashes (one retried, one dropped
/// after the single allowed retry), timeouts, and compile errors.
void digest_session_script(Digest& d, const std::string& workload_name,
                           std::uint64_t seed,
                           const std::string& strategy = "pwu") {
  const auto workload = workloads::make_workload(workload_name);
  core::LearnerConfig cfg;
  cfg.n_init = 6;
  cfg.n_batch = 3;
  cfg.n_max = 27;
  cfg.forest.num_trees = 6;
  cfg.failure.max_retries = 1;
  util::Rng split_rng(seed);
  auto split = space::make_pool_split(workload->space(), 120, 0, split_rng);
  AskTellSession session(workload->space(), StrategySpec{strategy, 0.05},
                         cfg, std::move(split.pool), seed * 7 + 1);
  util::Rng measure_rng(seed + 99);

  std::size_t measured = 0;
  const auto measure_batch = [&](const std::vector<Candidate>& batch) {
    d.u64(batch.size());
    for (const Candidate& c : batch) d.candidate(c);
    for (const Candidate& c : batch) {
      const std::size_t k = measured++;
      if (k % 11 == 5) {
        const FailureOutcome o =
            session.tell_failure(c.config, sim::FailureKind::Timeout, 2.0);
        d.u64(static_cast<std::uint64_t>(o.action));
        d.u64(o.batch_complete ? 1 : 0);
        continue;
      }
      if (k % 13 == 8) {
        const FailureOutcome o =
            session.tell_failure(c.config, sim::FailureKind::CompileError);
        d.u64(static_cast<std::uint64_t>(o.action));
        d.u64(o.batch_complete ? 1 : 0);
        continue;
      }
      if (k % 7 == 3) {
        const int crashes = k % 2 == 0 ? 2 : 1;
        FailureOutcome o;
        for (int i = 0; i < crashes; ++i) {
          o = session.tell_failure(c.config, sim::FailureKind::Crash, 0.25);
          d.u64(static_cast<std::uint64_t>(o.action));
          d.u64(o.attempts);
          d.f64(o.backoff_seconds);
          d.u64(o.batch_complete ? 1 : 0);
        }
        if (o.action == FailureAction::Dropped) continue;
      }
      d.u64(session.tell(c.config, workload->measure(c.config, measure_rng, 1))
                ? 1
                : 0);
    }
  };

  measure_batch(session.ask_degraded(0, nullptr));
  while (session.phase() == SessionPhase::ColdStart) {
    measure_batch(session.ask());
  }
  std::shared_ptr<core::Surrogate> stale;
  for (std::size_t round = 0; !session.done(); ++round) {
    ASSERT_LT(round, 100u) << workload_name;
    std::shared_ptr<core::Surrogate> current = session.model();
    switch (round % 4) {
      case 0:
        measure_batch(session.ask());
        break;
      case 1: {
        const AskPlan plan = session.plan_ask();
        if (!plan.needs_scores) {
          measure_batch(plan.candidates);
          break;
        }
        measure_batch(session.finish_ask(
            plan, session.model()->predict_stats_batch(
                      session.pool_features())));
        break;
      }
      case 2:
        measure_batch(session.ask_degraded(0, stale.get()));
        break;
      default:
        measure_batch(session.ask(2));
        break;
    }
    stale = std::move(current);
  }

  // The script must reach every step it is meant to pin.
  EXPECT_GT(session.degraded_stale_asks(), 0u) << workload_name;
  EXPECT_EQ(session.degraded_random_asks(), 1u) << workload_name;
  EXPECT_GT(session.transient_retries(), 0u) << workload_name;
  EXPECT_GT(session.censored().size(), 0u) << workload_name;
  d.u64(session.degraded_stale_asks());
  d.u64(session.degraded_random_asks());
  d.u64(session.transient_retries());
  d.u64(session.failed().size());
  d.u64(session.censored().size());
  d.f64(session.failure_cost());
  d.f64(session.cumulative_cost());
  std::ostringstream image;
  session.save(image);
  d.str(image.str());
}

/// SessionManager run: compile-error tells, auto-checkpoint every 2 tells
/// (hashing each written file), a forced checkpoint, a resume of it, the
/// drain image, and a second manager whose one-byte budget evicts the
/// session after every operation (hashing each eviction image).
void digest_manager_script(Digest& d, const std::string& dir) {
  SessionSpec spec;
  spec.workload = "atax";
  spec.learner.n_init = 5;
  spec.learner.n_batch = 2;
  spec.learner.n_max = 17;
  spec.learner.forest.num_trees = 5;
  spec.pool_size = 100;
  spec.seed = 13;

  const auto drive = [&](SessionManager& manager, const std::string& name,
                         const std::string& file) {
    const SessionStatus created = manager.create(name, spec);
    d.u64(created.measure_seed);
    const auto workload = workloads::make_workload(spec.workload);
    util::Rng measure_rng(created.measure_seed);
    std::size_t k = 0;
    while (!manager.status(name).done) {
      for (const Candidate& c : manager.ask(name)) {
        d.candidate(c);
        if (k++ % 5 == 2) {
          const FailureTellOutcome o = manager.tell_failure(
              name, c.config, sim::FailureKind::CompileError);
          d.u64(static_cast<std::uint64_t>(o.action));
          d.u64(o.attempts);
          d.f64(o.backoff_seconds);
          d.u64(o.batch_complete ? 1 : 0);
          d.u64(o.done ? 1 : 0);
          d.u64(o.failed_total);
          d.u64(o.checkpoint_path.empty() ? 0 : 1);
        } else {
          const TellOutcome o = manager.tell(
              name, c.config, workload->measure(c.config, measure_rng, 1));
          d.u64(o.labeled);
          d.u64(o.batch_complete ? 1 : 0);
          d.u64(o.done ? 1 : 0);
          d.u64(o.checkpoint_path.empty() ? 0 : 1);
        }
        d.file(file);
      }
    }
  };

  {
    SessionManager manager;
    manager.enable_auto_checkpoint(dir, 2);
    drive(manager, "digest", dir + "/digest.ckpt");
    const std::string forced = dir + "/forced.ckpt";
    manager.checkpoint_to_file("digest", forced);
    d.file(forced);
    const ResumeOutcome resumed = manager.resume_from_file("again", forced);
    d.u64(resumed.status.labeled);
    d.u64(resumed.status.iteration);
    d.f64(resumed.status.cumulative_cost);
    manager.drain();
    d.file(dir + "/again.ckpt");
  }
  {
    ServiceLimits limits;
    limits.memory_budget_bytes = 1;
    SessionManager manager(nullptr, limits);
    manager.enable_auto_checkpoint(dir, 0);
    drive(manager, "evicted", dir + "/evicted.ckpt");
    const HealthReport health = manager.health();
    EXPECT_GT(health.evictions, 0u);
    EXPECT_GT(health.lazy_resumes, 0u);
    d.u64(health.evictions);
    d.u64(health.lazy_resumes);
  }
}

/// ActiveLearner: run, run_warm, and run_with_executor under a fault model,
/// all averaging two repetitions per measurement.
void digest_learner_script(Digest& d) {
  const auto workload = workloads::make_workload("gesummv");
  core::LearnerConfig cfg;
  cfg.n_init = 6;
  cfg.n_batch = 2;
  cfg.n_max = 22;
  cfg.forest.num_trees = 6;
  cfg.eval_every = 3;
  cfg.eval_alphas = {0.05, 0.2};
  cfg.measure_repetitions = 2;
  util::Rng split_rng(17);
  const auto split =
      space::make_pool_split(workload->space(), 200, 60, split_rng);
  const core::TestSet test =
      core::build_test_set(*workload, split.test, split_rng);
  const core::StrategyPtr strategy = core::make_strategy("pwu", 0.05);
  const core::ActiveLearner learner(*workload, cfg);

  util::Rng rng_plain(71);
  d.learner_result(learner.run(*strategy, split.pool, test, rng_plain));

  const auto& space = workload->space();
  rf::Dataset warm(space.num_params(), space.categorical_mask(),
                   space.cardinalities());
  util::Rng warm_rng(5);
  for (std::size_t i = 0; i < 8; ++i) {
    warm.add(space.features(split.test[i]),
             workload->measure(split.test[i], warm_rng, 1));
  }
  util::Rng rng_warm(72);
  d.learner_result(
      learner.run_warm(*strategy, split.pool, test, warm, rng_warm));

  sim::FaultConfig faults_cfg;
  faults_cfg.compile_fail_fraction = 0.1;
  faults_cfg.crash_fraction = 0.15;
  faults_cfg.crash_probability = 0.5;
  faults_cfg.timeout_fraction = 0.05;
  faults_cfg.timeout_seconds = 5.0;
  faults_cfg.seed = 3;
  const sim::FaultModel faults(faults_cfg);
  sim::Executor executor(cfg.measure_repetitions, &faults);
  util::Rng rng_exec(73);
  const core::LearnerResult faulty =
      learner.run_with_executor(*strategy, split.pool, test, executor,
                                rng_exec);
  EXPECT_GT(faulty.failed_configs, 0u);
  d.learner_result(faulty);
  d.f64(executor.total_cost_seconds());
  d.u64(executor.total_runs());
  d.u64(executor.failed_measurements());
}

TEST(AskTellDigest, EveryAskTellStepMatchesTheRecordedDigest) {
  const std::string dir = testing::TempDir() + "pwu_ask_tell_digest_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Digest d;
  std::uint64_t seed = 3;
  for (const char* name : {"gesummv", "kripke", "hypre", "atax"}) {
    digest_session_script(d, name, seed++);
  }
  // egreedy draws from the rng it is handed on every pick, so a fresh or
  // degraded ask selecting on the other's stream changes the digest;
  // diverse reads the pool's feature rows through the prediction.
  digest_session_script(d, "kripke", seed++, "egreedy");
  digest_session_script(d, "atax", seed++, "diverse");
  digest_manager_script(d, dir);
  digest_learner_script(d);
  std::filesystem::remove_all(dir);

  // Recorded from the implementation before its duplicated ask/tell steps
  // were merged; any behavioural drift since then changes it.
  EXPECT_EQ(d.value(), 0x8a013802845a8396ULL) << std::hex << d.value();
}

}  // namespace
}  // namespace pwu::service
