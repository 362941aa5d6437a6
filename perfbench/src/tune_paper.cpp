// tune_paper: the paper's Algorithm 1 run in-process — PWU (alpha 0.01),
// n_init 10, n_batch 1, 50 trees, pool 7000, test 3000 — on three SPAPT
// kernels with numeric features (SIMD forest kernels) and two application
// models with categorical splits (scalar path). No service code runs.
//
// The loop drives AskTellSession by its public calls (TimedSession) so
// the simulator (Workload::measure) and the held-out evaluation stay out
// of every timed number, and checks itself against ActiveLearner::run
// label for label.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/active_learner.hpp"
#include "core/metrics.hpp"
#include "core/sampling_strategy.hpp"
#include "layers.hpp"
#include "service/ask_tell_session.hpp"
#include "timed_session.hpp"
#include "space/pool.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

namespace core = pwu::core;
namespace space = pwu::space;

constexpr std::size_t kPool = 7000;
constexpr std::size_t kTest = 3000;
constexpr std::size_t kInit = 10;
constexpr std::size_t kBatch = 1;
constexpr std::size_t kMax = 250;
constexpr std::size_t kTrees = 50;
constexpr double kAlpha = 0.01;
constexpr int kSetupRoundsPerKernel = 2;
constexpr int kPasses = 3;

/// Top-1% RMSE each kernel must reach. Fixed constants, set once on the
/// commit that introduced this benchmark and never re-derived from the code
/// under test. Each is 1.25x the worst best-by-n_max RMSE seen over 120
/// seeds at these settings: this file's loop on benchmark seeds 1..40
/// (best RMSE over every refit) and `pwu_run --strategies pwu --alpha 0.01
/// --eval-every 5` on seeds 1000..1079 (best over every fifth label).
///
///   kernel   worst, seeds 1..40   worst, seeds 1000..1079   target
///   atax     0.2051               0.133                     0.26
///   adi      1.2899               1.445                     1.8
///   mm       1.3545               2.385                     3.0
///   kripke   3.5208               10.760                    13.5
///   hypre    0.5336               0.611                     0.76
///
/// So every seed reaches them, and a miss (a failed operation) flags a
/// change that made PWU learn worse. PWU's outcomes are heavy-tailed across
/// seeds (a few seeds stall near the cold-start error), so the median seed
/// crosses well before two thirds of n_max.
struct KernelTarget {
  const char* name;
  double target;
};
constexpr KernelTarget kKernels[] = {
    {"atax", 0.26}, {"adi", 1.8}, {"mm", 3.0}, {"kripke", 13.5},
    {"hypre", 0.76},
};

core::LearnerConfig learner_config() {
  core::LearnerConfig config;
  config.n_init = kInit;
  config.n_batch = kBatch;
  config.n_max = kMax;
  config.forest.num_trees = kTrees;
  config.eval_alphas = {kAlpha};
  config.eval_every = kMax;  // the reference run needs no dense trace
  return config;
}

struct KernelInputs {
  space::PoolSplit split;
  core::TestSet test;
  pwu::util::Rng run_rng;
};

/// Pool/test split and labeled test set of every kernel, from the seed.
/// Returns the wall time it took.
double make_inputs(std::uint64_t seed, std::vector<KernelInputs>& inputs) {
  pwu::util::Rng master(seed);
  std::vector<pwu::util::Rng> split_rngs;
  std::vector<pwu::util::Rng> run_rngs;
  for (std::size_t k = 0; k < std::size(kKernels); ++k) {
    pwu::util::Rng kernel_master = master.fork();
    split_rngs.push_back(kernel_master.fork());
    run_rngs.push_back(kernel_master.fork());
  }
  const auto start = Clock::now();
  inputs.clear();
  for (std::size_t k = 0; k < std::size(kKernels); ++k) {
    const auto workload = pwu::workloads::make_workload(kKernels[k].name);
    pwu::util::Rng split_rng = split_rngs[k];
    space::PoolSplit split =
        space::make_pool_split(workload->space(), kPool, kTest, split_rng);
    core::TestSet test =
        core::build_test_set(*workload, split.test, split_rng, 1);
    inputs.push_back({std::move(split), std::move(test), run_rngs[k]});
  }
  return seconds_between(start, Clock::now());
}

/// One kernel's tuning run: the hand-driven loop plus its measurements.
struct KernelRun {
  std::vector<double> ask_s;  // refit + plan + score + select
  std::vector<double> tell_s;
  std::vector<double> rmse;          // after every refit
  std::vector<double> learner_s;     // cumulative learner time at each refit
  std::vector<double> cost;          // Eq. 3 cost at each refit
  std::vector<std::size_t> labeled;  // labels at each refit
  std::vector<space::Configuration> train_configs;
  std::vector<double> train_labels;
  std::size_t rows_scored = 0;
};

KernelRun run_kernel(const pwu::workloads::Workload& workload,
                     const KernelInputs& in, pwu::util::ThreadPool& pool,
                     Tracer& tracer) {
  const core::StrategyPtr strategy = core::make_pwu(kAlpha);
  pwu::util::Rng run_rng = in.run_rng;
  // Same derivation as ActiveLearner::run: session stream, then the
  // measurement stream.
  const std::uint64_t session_seed = run_rng.next_u64();
  pwu::util::Rng measure_rng(run_rng.next_u64());
  pwu::service::AskTellSession session(workload.space(), *strategy,
                                       learner_config(), in.split.pool,
                                       nullptr, session_seed, &pool);
  TimedSession timed(session, tracer, &pool);
  KernelRun run;
  double learner_s = 0.0;
  // The refit after a batch belongs to the next ask's latency: a tuner
  // waits tell -> fresh model -> next candidate.
  double pending_fit_s = 0.0;
  for (;;) {
    double ask_s = 0.0;
    const std::vector<pwu::service::Candidate> batch = timed.ask(0, ask_s);
    run.ask_s.push_back(pending_fit_s + ask_s);
    learner_s += ask_s;
    for (const pwu::service::Candidate& candidate : batch) {
      double t = 0.0;
      {
        Tracer::Span span(tracer, "workloads.measure");
        t = workload.measure(candidate.config, measure_rng, 1);
      }
      const double tell_s = timed.tell(candidate.config, t);
      run.tell_s.push_back(tell_s);
      learner_s += tell_s;
    }
    // Refit after the batch, exactly where ActiveLearner::run does.
    pending_fit_s = timed.refit();
    learner_s += pending_fit_s;
    {
      Tracer::Span span(tracer, "core.eval");
      run.rmse.push_back(
          core::top_alpha_rmse(*session.model(), in.test, kAlpha));
    }
    run.learner_s.push_back(learner_s);
    run.cost.push_back(session.cumulative_cost());
    run.labeled.push_back(session.num_labeled());
    if (session.done()) break;
  }
  run.train_configs = session.train_configs();
  run.train_labels = session.train_labels();
  run.rows_scored = timed.rows_scored();
  return run;
}

/// Index of the first refit whose model reaches `target`, or npos.
std::size_t first_crossing(const std::vector<double>& rmse, double target) {
  for (std::size_t i = 0; i < rmse.size(); ++i) {
    if (rmse[i] <= target) return i;
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

Report run_tune_paper(const Options& opt) {
  Report report;
  Tracer tracer(opt.trace);
  pwu::util::ThreadPool pool(opt.threads);

  std::vector<KernelInputs> inputs;
  std::vector<double> setup_rounds{make_inputs(opt.seed, inputs)};

  // Timed passes over identical inputs, kernel-interleaved so a burst of
  // machine noise lands on different asks in different passes. The passes
  // do the same work and noise only ever adds time, so each operation's
  // latency is its best across passes. A traced run makes one pass, so
  // span counts are per tuning run.
  const int passes = opt.trace ? 1 : kPasses;
  const auto traced_start = Clock::now();
  std::vector<std::vector<KernelRun>> runs(static_cast<std::size_t>(passes));
  for (auto& pass : runs) {
    for (std::size_t k = 0; k < std::size(kKernels); ++k) {
      const auto workload = pwu::workloads::make_workload(kKernels[k].name);
      pass.push_back(run_kernel(*workload, inputs[k], pool, tracer));
      // Set-up is timed again between kernel runs: one process's set-up
      // speed drifts by a third over seconds, so its median must sample
      // the whole run, not one burst at the start.
      for (int round = 0; round < kSetupRoundsPerKernel; ++round) {
        std::vector<KernelInputs> again;
        setup_rounds.push_back(make_inputs(opt.seed, again));
      }
    }
  }
  const double setup_s = quartiles(setup_rounds).median;
  const double traced_wall_s = seconds_between(traced_start, Clock::now());

  const auto best_across = [&](std::size_t k, auto field, std::size_t i) {
    double best = (runs[0][k].*field)[i];
    for (const auto& pass : runs) best = std::min(best, (pass[k].*field)[i]);
    return best;
  };
  std::vector<double> ask_ms;
  std::vector<double> tell_ms;
  double learner_total_s = 0.0;
  double wall_to_target_s = 0.0;
  double cc_to_target = 0.0;
  double log_rmse_sum = 0.0;
  std::size_t rows_scored = 0;
  std::printf("tune_paper: PWU alpha %.2f, n_init %zu, n_batch %zu, n_max "
              "%zu, %zu trees, pool %zu, test %zu, %u threads, %d timed "
              "passes\n",
              kAlpha, kInit, kBatch, kMax, kTrees, kPool, kTest, opt.threads,
              passes);
  std::printf("  %-7s %8s %9s %8s %10s %10s %10s\n", "kernel", "target",
              "n_cross", "wall_s", "cc_cross", "rmse_fin", "reference");
  for (std::size_t k = 0; k < std::size(kKernels); ++k) {
    const KernelRun& run = runs[0][k];
    for (std::size_t i = 0; i < run.ask_s.size(); ++i) {
      ask_ms.push_back(best_across(k, &KernelRun::ask_s, i) * 1e3);
    }
    for (std::size_t i = 0; i < run.tell_s.size(); ++i) {
      tell_ms.push_back(best_across(k, &KernelRun::tell_s, i) * 1e3);
    }
    learner_total_s +=
        best_across(k, &KernelRun::learner_s, run.learner_s.size() - 1);
    rows_scored += run.rows_scored;
    report.attempted += run.ask_s.size() + run.tell_s.size() + 1;

    const std::size_t cross = first_crossing(run.rmse, kKernels[k].target);
    const bool crossed = cross != static_cast<std::size_t>(-1);
    const double cross_s =
        crossed ? best_across(k, &KernelRun::learner_s, cross) : 0.0;
    if (!crossed) {
      report.failed += 1;  // a kernel that misses its target
    } else {
      wall_to_target_s += cross_s;
      cc_to_target += run.cost[cross];
    }
    log_rmse_sum += std::log(run.rmse.back());

    // Reference: ActiveLearner::run over the same inputs must label the
    // same configurations with the same times, in the same order — and so
    // must every timed pass.
    const auto workload = pwu::workloads::make_workload(kKernels[k].name);
    const core::StrategyPtr strategy = core::make_pwu(kAlpha);
    const core::ActiveLearner learner(*workload, learner_config());
    pwu::util::Rng rng = inputs[k].run_rng;
    const core::LearnerResult ref = learner.run(
        *strategy, inputs[k].split.pool, inputs[k].test, rng, &pool);
    bool same = true;
    for (const auto& pass : runs) {
      same = same && ref.train_configs == pass[k].train_configs &&
             ref.train_labels == pass[k].train_labels;
    }
    if (!same) {
      report.fail_check(std::string("tune_paper ") + kKernels[k].name +
                        ": hand-driven loop diverged from ActiveLearner::run");
    }
    std::printf("  %-7s %8.3f %9s %8.3f %10.2f %10.4f %10s\n",
                kKernels[k].name, kKernels[k].target,
                crossed ? std::to_string(run.labeled[cross]).c_str()
                        : "missed",
                cross_s, crossed ? run.cost[cross] : 0.0, run.rmse.back(),
                same ? "identical" : "DIVERGED");
  }
  const double n_kernels = static_cast<double>(std::size(kKernels));
  const double rmse_final = std::exp(log_rmse_sum / n_kernels);
  std::printf("  samples: %zu asks, %zu tells; tune_wall_to_target_s %.3f, "
              "tune_cc_to_target %.3f, tune_rmse_final %.5f\n",
              ask_ms.size(), tell_ms.size(), wall_to_target_s, cc_to_target,
              rmse_final);

  auto& m = report.metrics;
  if (!opt.trace) {
    m["setup_s"] = setup_s;
    m["ask_ms_p50"] = percentile(ask_ms, 0.50);
    m["ask_ms_p99"] = percentile(ask_ms, 0.99);
    m["tell_ms_p50"] = percentile(tell_ms, 0.50);
    m["tell_ms_p99"] = percentile(tell_ms, 0.99);
    m["req_per_s"] =
        static_cast<double>(ask_ms.size() + tell_ms.size()) / learner_total_s;
  } else {
    m["space.pool.setup_s"] = setup_s;
    m["tune_wall_to_target_s"] = wall_to_target_s;
    m["tune_cc_to_target"] = cc_to_target;
    m["tune_rmse_final"] = rmse_final;
    finish_trace(tracer, opt, traced_wall_s, rows_scored, report);
  }
  return report;
}

}  // namespace perfbench
