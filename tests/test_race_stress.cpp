// Race stress harness — these tests exist to be run under ThreadSanitizer
// (the `tsan` preset). They hammer the two places where threads genuinely
// share mutable state:
//
//   * SessionManager — per-session driver threads ask/tell concurrently
//     while background refits run on a shared worker pool and a poller
//     thread reads status/list/checkpoint through the const paths.
//   * FlatForest — one compiled forest and one feature matrix evaluated
//     from several threads at once, each fanning out over the same pool.
//
// Under a plain build they still pass (and assert determinism: concurrent
// drivers must reproduce the single-threaded labels exactly), so they run
// in every suite; TSAN is what turns a latent race into a failure.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rf/dataset.hpp"
#include "rf/feature_matrix.hpp"
#include "rf/random_forest.hpp"
#include "service/session_manager.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"

namespace pwu::service {
namespace {

SessionSpec stress_spec(std::uint64_t seed) {
  SessionSpec spec;
  spec.workload = "gesummv";
  spec.learner.n_init = 6;
  spec.learner.n_batch = 2;
  spec.learner.n_max = 14;
  spec.learner.forest.num_trees = 8;
  spec.pool_size = 120;
  spec.seed = seed;
  return spec;
}

/// Client loop: measure with the stream the server hands back, tell in ask
/// order. Identical to the single-threaded driver in test_service.cpp so
/// the concurrent runs below are label-for-label comparable.
SessionStatus drive(SessionManager& manager, const std::string& name) {
  const SessionStatus st = manager.status(name);
  const auto workload = workloads::make_workload(st.workload);
  util::Rng measure_rng(st.measure_seed);
  for (;;) {
    const auto batch = manager.ask(name);
    if (batch.empty()) break;
    for (const Candidate& c : batch) {
      manager.tell(name, c.config,
                   workload->measure(c.config, measure_rng, 1));
    }
  }
  return manager.status(name);
}

TEST(RaceStress, SessionManagerConcurrentAskTellRefit) {
  constexpr std::size_t kSessions = 4;

  // Reference labels from a serial manager, one session at a time.
  std::vector<double> serial_best(kSessions);
  {
    SessionManager serial;
    for (std::size_t i = 0; i < kSessions; ++i) {
      const std::string name = "s" + std::to_string(i);
      serial.create(name, stress_spec(1000 + 17 * i));
      serial_best[i] = drive(serial, name).best_observed;
    }
  }

  // Concurrent run: one driver thread per session, refits offloaded to a
  // shared 4-worker pool so fits of different sessions overlap, plus a
  // poller thread reading every const entry point while drivers mutate.
  util::ThreadPool workers(4);
  SessionManager manager(&workers);
  for (std::size_t i = 0; i < kSessions; ++i) {
    manager.create("s" + std::to_string(i), stress_spec(1000 + 17 * i));
  }

  // The drivers wait until the poller has begun its first pass, so that
  // pass always overlaps their mutations. Started after them, the poller
  // could first run once all four short drives had already finished.
  std::atomic<std::size_t> finished{0};
  std::atomic<std::size_t> polls{0};
  std::atomic<bool> polling{false};
  std::thread poller([&] {
    while (finished.load(std::memory_order_relaxed) < kSessions) {
      polling.store(true, std::memory_order_release);
      const auto all = manager.list();
      EXPECT_EQ(all.size(), kSessions);
      for (const auto& st : all) {
        EXPECT_LE(st.labeled, st.n_max);
        std::ostringstream checkpoint;
        manager.checkpoint(st.name, checkpoint);
        EXPECT_FALSE(checkpoint.str().empty());
      }
      polls.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<SessionStatus> final_status(kSessions);
  std::vector<std::thread> drivers;
  drivers.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    drivers.emplace_back([&, i] {
      while (!polling.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      final_status[i] = drive(manager, "s" + std::to_string(i));
      finished.fetch_add(1, std::memory_order_relaxed);
    });
  }

  for (auto& t : drivers) t.join();
  poller.join();

  EXPECT_GT(polls.load(), 0u);
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(final_status[i].done);
    EXPECT_EQ(final_status[i].labeled, 14u);
    EXPECT_EQ(final_status[i].pending, 0u);
    // Concurrency must change timing only, never a label.
    EXPECT_EQ(final_status[i].best_observed, serial_best[i]);
  }
}

TEST(RaceStress, SessionManagerCreateCloseChurnWhileDriving) {
  // Registry-level churn: while two long-lived sessions are being driven,
  // another thread creates and closes short-lived sessions, stressing the
  // registry mutex against the per-entry mutexes.
  util::ThreadPool workers(4);
  SessionManager manager(&workers);
  manager.create("a", stress_spec(7));
  manager.create("b", stress_spec(8));

  std::atomic<bool> driving{true};
  std::thread churn([&] {
    std::size_t n = 0;
    while (driving.load(std::memory_order_relaxed)) {
      const std::string name = "tmp" + std::to_string(n++ % 3);
      manager.create(name, stress_spec(9000 + n));
      manager.ask(name);  // leave a batch outstanding, then drop it
      EXPECT_TRUE(manager.close(name));
      std::this_thread::yield();
    }
  });

  std::thread da([&] { drive(manager, "a"); });
  std::thread db([&] { drive(manager, "b"); });
  da.join();
  db.join();
  driving.store(false, std::memory_order_relaxed);
  churn.join();

  EXPECT_TRUE(manager.status("a").done);
  EXPECT_TRUE(manager.status("b").done);
  EXPECT_EQ(manager.size(), 2u);
}

TEST(RaceStress, CloseAndDestroyWithRefitsInFlight) {
  // Regression for a use-after-free: the refit task used to capture a raw
  // AskTellSession*, so close() (or ~SessionManager) could free the
  // session while the pool was still fitting it. The task now owns the
  // Entry via shared_ptr, making teardown-while-fitting safe. Each round
  // schedules refits on a slow-ish pool and immediately tears down; ASAN /
  // TSAN turn any revival of the bug into a failure.
  const auto workload = workloads::make_workload("gesummv");
  for (int round = 0; round < 6; ++round) {
    util::ThreadPool workers(2);
    auto manager = std::make_unique<SessionManager>(&workers);
    for (int s = 0; s < 3; ++s) {
      const std::string name = "r" + std::to_string(s);
      manager->create(name, stress_spec(400 + 10 * round + s));
      // Complete the cold batch: the tell of the last label schedules a
      // background refit on the pool.
      util::Rng measure(manager->status(name).measure_seed);
      for (const Candidate& c : manager->ask(name)) {
        manager->tell(name, c.config, workload->measure(c.config, measure, 1));
      }
    }
    // Close one session with its refit possibly still running, then drop
    // the whole manager the same way. Both must block on (or safely
    // disown) the in-flight fits — never free state under them.
    EXPECT_TRUE(manager->close("r0"));
    if (round % 2 == 0) manager->drain();
    manager.reset();
  }
}

TEST(RaceStress, ConcurrentDegradedAsksWhileRefitsRun) {
  // Deadline-0 drivers race their own background refits: every ask is
  // answered immediately (fresh or degraded), tells block only for the
  // fit in flight, and the run still finishes every session's budget.
  // Under TSAN this exercises last_good snapshots, the degraded rng, and
  // the watchdog fields against the refit worker.
  constexpr std::size_t kSessions = 4;
  util::ThreadPool workers(4);
  SessionManager manager(&workers);
  const auto workload = workloads::make_workload("gesummv");
  for (std::size_t i = 0; i < kSessions; ++i) {
    manager.create("d" + std::to_string(i), stress_spec(600 + 23 * i));
  }

  std::atomic<std::size_t> finished{0};
  std::atomic<std::size_t> degraded{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    drivers.emplace_back([&, i] {
      const std::string name = "d" + std::to_string(i);
      util::Rng measure(manager.status(name).measure_seed);
      for (;;) {
        const AskOutcome out = manager.ask_with_deadline(name, 0, 0);
        if (out.degraded != DegradedMode::None) {
          degraded.fetch_add(1, std::memory_order_relaxed);
        }
        if (out.candidates.empty()) break;
        for (const Candidate& c : out.candidates) {
          manager.tell(name, c.config,
                       workload->measure(c.config, measure, 1));
        }
      }
      finished.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::thread poller([&] {
    while (finished.load(std::memory_order_relaxed) < kSessions) {
      const HealthReport health = manager.health();
      EXPECT_EQ(health.sessions.size(), kSessions);
      std::this_thread::yield();
    }
  });
  for (auto& t : drivers) t.join();
  poller.join();

  for (std::size_t i = 0; i < kSessions; ++i) {
    const SessionStatus st = manager.status("d" + std::to_string(i));
    EXPECT_TRUE(st.done);
    EXPECT_EQ(st.labeled, 14u);
  }
  const HealthReport health = manager.health();
  EXPECT_EQ(health.degraded_stale_asks + health.degraded_random_asks,
            degraded.load());
  EXPECT_EQ(health.overloaded_sheds, 0u);
}

TEST(RaceStress, DeferredCheckpointCommitKeepsTheNewestImage) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "pwu_race_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  SessionSpec spec = stress_spec(4242);
  spec.learner.n_init = 8;
  spec.learner.n_batch = 6;
  spec.learner.n_max = 32;

  SessionManager manager;
  manager.enable_auto_checkpoint(dir.string(), 1);
  const SessionStatus created = manager.create("s", spec);
  const auto workload = workloads::make_workload(created.workload);
  util::Rng measure_rng(created.measure_seed);

  // Measure each batch serially (the measure stream is ordered), then fan
  // the tells across threads so the deferred checkpoint commits — which
  // run after the session mutex is released — race on the write mutex.
  constexpr std::size_t kTellers = 4;
  for (;;) {
    const auto batch = manager.ask("s");
    if (batch.empty()) break;
    std::vector<double> measured(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      measured[i] = workload->measure(batch[i].config, measure_rng, 1);
    }
    std::vector<std::thread> tellers;
    tellers.reserve(kTellers);
    for (std::size_t t = 0; t < kTellers; ++t) {
      tellers.emplace_back([&, t] {
        for (std::size_t i = t; i < batch.size(); i += kTellers) {
          manager.tell("s", batch[i].config, measured[i]);
        }
      });
    }
    for (auto& th : tellers) th.join();
  }
  const SessionStatus final_status = manager.status("s");
  EXPECT_EQ(final_status.labeled, final_status.n_max);

  // Whatever commit won last must be the newest image: the file parses
  // (no torn tmp collision) and carries the final state, not a stale one
  // that overwrote a newer commit.
  SessionManager restarted;
  const ResumeOutcome recovered =
      restarted.resume_from_file("s", (dir / "s.ckpt").string());
  EXPECT_FALSE(recovered.used_fallback);
  EXPECT_EQ(recovered.status.labeled, final_status.labeled);
  EXPECT_EQ(recovered.status.best_observed, final_status.best_observed);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pwu::service

namespace pwu::rf {
namespace {

TEST(RaceStress, FlatForestSharedParallelEval) {
  // One compiled forest + one feature matrix, shared (read-only) across
  // reader threads that each fan their evaluation out over one shared
  // worker pool. Every thread must see bit-identical results.
  const auto workload = workloads::make_workload("gesummv");
  const auto& space = workload->space();
  util::Rng rng(0xACE5);

  Dataset train(space.num_params(), space.categorical_mask(),
                space.cardinalities());
  for (std::size_t i = 0; i < 90; ++i) {
    const auto config = space.random_config(rng);
    train.add(space.features(config), workload->measure(config, rng, 1));
  }

  ForestConfig cfg;
  cfg.num_trees = 12;
  util::Rng fit_rng(31);
  RandomForest forest;
  forest.fit(train, cfg, fit_rng);

  // 600 rows make three row blocks, so the shared pool really fans out.
  FeatureMatrix probes = FeatureMatrix::with_capacity(space.num_params(), 600);
  for (std::size_t i = 0; i < 600; ++i) {
    space.write_features(space.random_config(rng), probes.append_row());
  }
  const std::vector<PredictionStats> reference =
      forest.predict_stats_batch(probes);

  constexpr std::size_t kReaders = 4;
  constexpr int kRounds = 8;
  util::ThreadPool pool(4);
  std::vector<std::vector<PredictionStats>> results(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < kRounds; ++round) {
        results[r] = forest.predict_stats_batch(probes, &pool);
      }
    });
  }
  for (auto& t : readers) t.join();

  for (std::size_t r = 0; r < kReaders; ++r) {
    ASSERT_EQ(results[r].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[r][i].mean, reference[i].mean);
      EXPECT_EQ(results[r][i].variance, reference[i].variance);
    }
  }
}

}  // namespace
}  // namespace pwu::rf
