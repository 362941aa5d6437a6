// Random-forest hot-path regression harness.
//
// Measures the two costs that dominate the active-learning loop — refitting
// the forest from scratch and scoring the candidate pool — at the paper's
// scale (Section III: pools of O(10^4) configurations), and emits the
// numbers as BENCH_rf.json so perf regressions show up in review diffs.
//
// Three variants are timed in one binary:
//   fit        the presorted-column fitter (2000 x 12 rows, 50 trees)
//   reference  per-row tree walks over the original node tables ("before")
//   flat       the blocked FlatForest engine ("after", what predict_stats
//              actually routes through), at the dispatched SIMD level
// plus the bit-exactness check that flat == reference on every pool row,
// and two sweeps of the engine's kernel tiers (scalar|avx2), each pinned
// and checked bit-exact the same way: one over that numerical pool, one
// over a categorical workload's forest and pool (hypre, serve_model's
// session size). The sweeps interleave the tiers' 15 repetitions and
// report each cell's median beside its best. The seed_baseline_* constants
// are the pre-overhaul numbers measured on the same container
// (single-threaded), kept for before/after context.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "rf/random_forest.hpp"
#include "rf/simd_eval.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace {

using pwu::rf::Dataset;
using pwu::rf::FeatureMatrix;
using pwu::rf::ForestConfig;
using pwu::rf::PredictionStats;
using pwu::rf::RandomForest;

// Pre-overhaul (seed) timings of this same harness's workloads, measured
// single-threaded on the reference container with the pointer-walk engine.
constexpr double kSeedFitMs = 221.701;
constexpr double kSeedPredictMs = 452.810;

Dataset make_data(std::size_t rows, std::size_t features,
                  std::uint64_t seed) {
  pwu::util::Rng rng(seed);
  Dataset data(features);
  std::vector<double> row(features);
  for (std::size_t r = 0; r < rows; ++r) {
    double label = 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      row[f] = rng.uniform(0.0, 10.0);
      label += (f % 3 == 0 ? row[f] * row[f] : row[f]);
    }
    data.add(row, label);
  }
  return data;
}

FeatureMatrix make_pool(std::size_t rows, std::size_t features,
                        std::uint64_t seed) {
  pwu::util::Rng rng(seed);
  FeatureMatrix pool = FeatureMatrix::with_capacity(features, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& v : pool.append_row()) v = rng.uniform(0.0, 10.0);
  }
  return pool;
}

/// Best-of-`repeats` wall time of `body`, in milliseconds.
template <typename Fn>
double time_best_ms(int repeats, Fn&& body) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;
}

namespace simd = pwu::rf::simd;

struct LevelCell {
  const char* level;
  double best_ms = 0.0;
  double median_ms = 0.0;
  bool bit_exact = true;
  bool available = false;
};

bool same_stats(const std::vector<PredictionStats>& got,
                const std::vector<PredictionStats>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i].mean != want[i].mean || got[i].variance != want[i].variance) {
      return false;
    }
  }
  return true;
}

/// Each kernel tier over `pool`, single-threaded, pinned via
/// set_level_override and checked bit-for-bit against `ref` on every
/// repetition. Repetitions interleave the tiers (scalar, avx2, scalar,
/// ...) so drift in the machine's speed lands on every cell alike; each
/// cell reports its best and its median of `repeats` timings.
std::vector<LevelCell> sweep_levels(const RandomForest& forest,
                                    const FeatureMatrix& pool,
                                    const std::vector<PredictionStats>& ref,
                                    int repeats) {
  const simd::Level levels[] = {simd::Level::Scalar, simd::Level::Avx2};
  std::vector<LevelCell> cells;
  for (const simd::Level level : levels) {
    LevelCell cell{simd::level_name(level)};
    cell.available = level <= simd::detected_level();
    cells.push_back(cell);
  }
  std::vector<std::vector<double>> samples(cells.size());
  std::vector<PredictionStats> out;
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!cells[i].available) continue;
      simd::set_level_override(levels[i]);
      samples[i].push_back(
          time_best_ms(1, [&] { out = forest.predict_stats_batch(pool); }));
      simd::clear_level_override();
      cells[i].bit_exact = cells[i].bit_exact && same_stats(out, ref);
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].available) continue;
    std::vector<double>& ms = samples[i];
    std::sort(ms.begin(), ms.end());
    cells[i].best_ms = ms.front();
    cells[i].median_ms = ms[ms.size() / 2];
  }
  return cells;
}

bool cells_exact(const std::vector<LevelCell>& cells) {
  bool exact = true;
  for (const LevelCell& cell : cells) {
    if (cell.available) exact = exact && cell.bit_exact;
  }
  return exact;
}

void write_cells(std::ostream& json, const std::vector<LevelCell>& cells,
                 std::size_t rows) {
  const double scalar_ms = cells[0].median_ms;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const LevelCell& cell = cells[i];
    json << "      {\"level\": \"" << cell.level << "\", \"available\": "
         << (cell.available ? "true" : "false");
    if (cell.available) {
      json << ", \"best_ms\": " << cell.best_ms
           << ", \"median_ms\": " << cell.median_ms << ", \"rows_per_sec\": "
           << 1000.0 * static_cast<double>(rows) / cell.median_ms
           << ", \"speedup_vs_scalar\": " << scalar_ms / cell.median_ms
           << ", \"bit_exact\": " << (cell.bit_exact ? "true" : "false");
    }
    json << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
}

void print_cells(const std::vector<LevelCell>& cells) {
  const double scalar_ms = cells[0].median_ms;
  for (const LevelCell& cell : cells) {
    std::cout << "  " << cell.level << ": ";
    if (cell.available) {
      std::cout << "median " << cell.median_ms << " ms, best " << cell.best_ms
                << " ms (" << scalar_ms / cell.median_ms
                << "x scalar, bit-exact " << (cell.bit_exact ? "yes" : "NO")
                << ")\n";
    } else {
      std::cout << "unavailable on this host\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_rf.json";

  // ---- fit: 2000 x 12 rows, 50 trees (single-threaded) ----
  const Dataset fit_data = make_data(2000, 12, 1);
  ForestConfig fit_cfg;
  fit_cfg.num_trees = 50;
  volatile std::size_t sink = 0;
  const double fit_ms = time_best_ms(5, [&] {
    pwu::util::Rng rng(2);
    RandomForest forest;
    forest.fit(fit_data, fit_cfg, rng);
    sink = forest.num_trees();
  });

  // ---- batch predict_stats: 200 trees, 10k-row pool ----
  const Dataset train = make_data(500, 12, 3);
  ForestConfig predict_cfg;
  predict_cfg.num_trees = 200;
  pwu::util::Rng fit_rng(4);
  RandomForest forest;
  forest.fit(train, predict_cfg, fit_rng);

  const std::size_t pool_rows = 10000;
  const FeatureMatrix pool = make_pool(pool_rows, 12, 7);

  std::vector<PredictionStats> flat_out;
  const double flat_ms = time_best_ms(5, [&] {
    flat_out = forest.predict_stats_batch(pool);
  });

  std::vector<PredictionStats> ref_out(pool_rows);
  const double ref_ms = time_best_ms(3, [&] {
    for (std::size_t i = 0; i < pool_rows; ++i) {
      ref_out[i] = forest.predict_stats_reference(pool.row(i));
    }
  });

  bool bit_exact = true;
  for (std::size_t i = 0; i < pool_rows; ++i) {
    if (flat_out[i].mean != ref_out[i].mean ||
        flat_out[i].variance != ref_out[i].variance) {
      bit_exact = false;
      break;
    }
  }

  const double flat_rows_per_sec = 1000.0 * pool_rows / flat_ms;
  const double ref_rows_per_sec = 1000.0 * pool_rows / ref_ms;

  // ---- SIMD levels: each kernel tier over the same pool ----
  // Reported relative to the scalar tier (median over median) so the
  // kernel speedup is separated from the engine speedup above.
  constexpr int kLevelRepeats = 15;
  const std::vector<LevelCell> cells =
      sweep_levels(forest, pool, ref_out, kLevelRepeats);
  const double scalar_ms = cells[0].median_ms;
  double best_kernel_speedup = 1.0;
  for (const LevelCell& cell : cells) {
    if (!cell.available) continue;
    best_kernel_speedup =
        std::max(best_kernel_speedup, scalar_ms / cell.median_ms);
  }
  const bool levels_exact = cells_exact(cells);

  // ---- categorical forest: hypre at serve_model's session size ----
  // 100 trees on 40 labels, scoring a 4000-row pool of the same space:
  // trees split on categorical parameters, so every tier exercises its
  // mask-bit test.
  constexpr std::size_t kCatLabels = 40;
  constexpr std::size_t kCatPool = 4000;
  const auto workload = pwu::workloads::make_workload("hypre");
  const auto& space = workload->space();
  pwu::util::Rng cat_rng(11);
  Dataset cat_train(space.num_params(), space.categorical_mask(),
                    space.cardinalities());
  for (std::size_t i = 0; i < kCatLabels; ++i) {
    const auto config = space.random_config(cat_rng);
    cat_train.add(space.features(config),
                  workload->measure(config, cat_rng, 1));
  }
  ForestConfig cat_cfg;
  cat_cfg.num_trees = 100;
  RandomForest cat_forest;
  cat_forest.fit(cat_train, cat_cfg, cat_rng);
  FeatureMatrix cat_pool =
      FeatureMatrix::with_capacity(space.num_params(), kCatPool);
  for (std::size_t i = 0; i < kCatPool; ++i) {
    space.write_features(space.random_config(cat_rng), cat_pool.append_row());
  }
  std::vector<PredictionStats> cat_ref(kCatPool);
  for (std::size_t i = 0; i < kCatPool; ++i) {
    cat_ref[i] = cat_forest.predict_stats_reference(cat_pool.row(i));
  }
  const std::vector<LevelCell> cat_cells =
      sweep_levels(cat_forest, cat_pool, cat_ref, kLevelRepeats);
  const bool cat_exact = cells_exact(cat_cells);

  std::ofstream json(out_path);
  json.precision(6);
  json << "{\n"
       << "  \"fit\": {\n"
       << "    \"rows\": 2000, \"features\": 12, \"trees\": 50,\n"
       << "    \"ms\": " << fit_ms << ",\n"
       << "    \"seed_baseline_ms\": " << kSeedFitMs << ",\n"
       << "    \"speedup_vs_seed\": " << kSeedFitMs / fit_ms << "\n"
       << "  },\n"
       << "  \"predict_stats_batch\": {\n"
       << "    \"pool_rows\": " << pool_rows << ", \"trees\": 200,\n"
       << "    \"flat_ms\": " << flat_ms << ",\n"
       << "    \"flat_rows_per_sec\": " << flat_rows_per_sec << ",\n"
       << "    \"reference_ms\": " << ref_ms << ",\n"
       << "    \"reference_rows_per_sec\": " << ref_rows_per_sec << ",\n"
       << "    \"seed_baseline_ms\": " << kSeedPredictMs << ",\n"
       << "    \"speedup_vs_reference\": " << ref_ms / flat_ms << ",\n"
       << "    \"speedup_vs_seed\": " << kSeedPredictMs / flat_ms << "\n"
       << "  },\n"
       << "  \"simd_levels\": {\n"
       << "    \"detected_level\": \""
       << simd::level_name(simd::detected_level()) << "\",\n"
       << "    \"pool_rows\": " << pool_rows << ", \"trees\": 200,"
       << " \"repetitions\": " << kLevelRepeats << ",\n"
       << "    \"cells\": [\n";
  write_cells(json, cells, pool_rows);
  json << "    ],\n"
       << "    \"best_kernel_speedup_vs_scalar\": " << best_kernel_speedup
       << ",\n"
       << "    \"target_speedup\": 2.0,\n"
       << "    \"target_met\": "
       << (best_kernel_speedup >= 2.0 ? "true" : "false") << ",\n"
       << "    \"bit_exact\": " << (levels_exact ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"categorical_levels\": {\n"
       << "    \"workload\": \"hypre\", \"train_rows\": " << kCatLabels
       << ", \"trees\": " << cat_cfg.num_trees << ",\n"
       << "    \"pool_rows\": " << kCatPool << ", \"repetitions\": "
       << kLevelRepeats << ",\n"
       << "    \"cells\": [\n";
  write_cells(json, cat_cells, kCatPool);
  json << "    ],\n"
       << "    \"bit_exact\": " << (cat_exact ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"bit_exact\": " << (bit_exact ? "true" : "false") << "\n"
       << "}\n";
  json.close();

  std::cout << "fit(2000x12, 50 trees):          " << fit_ms << " ms (seed "
            << kSeedFitMs << " ms)\n"
            << "predict_stats(10k pool, 200t):\n"
            << "  flat      " << flat_ms << " ms  (" << flat_rows_per_sec
            << " rows/s)\n"
            << "  reference " << ref_ms << " ms  (" << ref_rows_per_sec
            << " rows/s)\n"
            << "  seed      " << kSeedPredictMs << " ms\n"
            << "  flat vs reference: " << ref_ms / flat_ms << "x, vs seed: "
            << kSeedPredictMs / flat_ms << "x\n"
            << "bit-exact flat == reference: " << (bit_exact ? "yes" : "NO")
            << "\nsimd levels (detected " << simd::level_name(simd::detected_level())
            << "):\n";
  print_cells(cells);
  std::cout << "  best kernel speedup vs scalar: " << best_kernel_speedup
            << "x (target 2x " << (best_kernel_speedup >= 2.0 ? "met" : "MISSED")
            << ")\ncategorical levels (hypre, " << cat_cfg.num_trees
            << " trees, " << kCatLabels << " labels, " << kCatPool
            << "-row pool):\n";
  print_cells(cat_cells);
  std::cout << "wrote " << out_path << "\n";
  return bit_exact && levels_exact && cat_exact ? 0 : 1;
}
