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
//              actually routes through)
// plus the bit-exactness check that flat == reference on every pool row.
// The seed_baseline_* constants are the pre-overhaul numbers measured on
// the same container (single-threaded), kept for before/after context.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "rf/quantized_layout.hpp"
#include "rf/random_forest.hpp"
#include "rf/simd_eval.hpp"
#include "util/rng.hpp"

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

  // ---- SIMD matrix: dispatch level x node layout over the same pool ----
  // Each cell is timed with the level pinned via set_level_override, checked
  // bit-for-bit against the reference walks, and reported relative to the
  // scalar 16-byte row so the kernel speedup is separated from the engine
  // speedup above.
  namespace simd = pwu::rf::simd;
  pwu::rf::QuantizedForest quant;
  const bool quant_built = quant.build(forest.flat());

  struct MatrixCell {
    const char* level;
    const char* layout;
    double ms = 0.0;
    bool bit_exact = true;
    bool available = false;
  };
  std::vector<MatrixCell> matrix;
  std::vector<PredictionStats> simd_out(pool_rows);
  const auto exact_vs_ref = [&](const std::vector<PredictionStats>& got) {
    for (std::size_t i = 0; i < pool_rows; ++i) {
      if (got[i].mean != ref_out[i].mean ||
          got[i].variance != ref_out[i].variance) {
        return false;
      }
    }
    return true;
  };
  for (const simd::Level level : {simd::Level::Scalar, simd::Level::Avx2}) {
    MatrixCell flat_cell{simd::level_name(level), "flat16"};
    MatrixCell quant_cell{simd::level_name(level), "quant8"};
    if (level <= simd::detected_level()) {
      simd::set_level_override(level);
      flat_cell.available = true;
      flat_cell.ms = time_best_ms(5, [&] {
        forest.flat().predict_stats(pool, simd_out);
      });
      flat_cell.bit_exact = exact_vs_ref(simd_out);
      if (quant_built) {
        quant_cell.available = true;
        quant_cell.ms = time_best_ms(5, [&] {
          quant.predict_stats(pool, simd_out);
        });
        quant_cell.bit_exact = exact_vs_ref(simd_out);
      }
      simd::clear_level_override();
    }
    matrix.push_back(flat_cell);
    matrix.push_back(quant_cell);
  }
  const double scalar_flat_ms = matrix[0].ms;
  double best_kernel_speedup = 1.0;
  bool matrix_exact = true;
  for (const MatrixCell& cell : matrix) {
    if (!cell.available) continue;
    matrix_exact = matrix_exact && cell.bit_exact;
    best_kernel_speedup =
        std::max(best_kernel_speedup, scalar_flat_ms / cell.ms);
  }

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
       << "  \"simd_matrix\": {\n"
       << "    \"detected_level\": \""
       << simd::level_name(simd::detected_level()) << "\",\n"
       << "    \"pool_rows\": " << pool_rows << ", \"trees\": 200,\n"
       << "    \"cells\": [\n";
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const MatrixCell& cell = matrix[i];
    json << "      {\"level\": \"" << cell.level << "\", \"layout\": \""
         << cell.layout << "\", \"available\": "
         << (cell.available ? "true" : "false");
    if (cell.available) {
      json << ", \"ms\": " << cell.ms << ", \"rows_per_sec\": "
           << 1000.0 * pool_rows / cell.ms << ", \"speedup_vs_scalar\": "
           << scalar_flat_ms / cell.ms << ", \"bit_exact\": "
           << (cell.bit_exact ? "true" : "false");
    }
    json << "}" << (i + 1 < matrix.size() ? "," : "") << "\n";
  }
  json << "    ],\n"
       << "    \"best_kernel_speedup_vs_scalar\": " << best_kernel_speedup
       << ",\n"
       << "    \"target_speedup\": 2.0,\n"
       << "    \"target_met\": "
       << (best_kernel_speedup >= 2.0 ? "true" : "false") << ",\n"
       << "    \"bit_exact\": " << (matrix_exact ? "true" : "false") << "\n"
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
            << "\nsimd matrix (detected " << simd::level_name(simd::detected_level())
            << "):\n";
  for (const MatrixCell& cell : matrix) {
    std::cout << "  " << cell.level << " x " << cell.layout << ": ";
    if (cell.available) {
      std::cout << cell.ms << " ms (" << scalar_flat_ms / cell.ms
                << "x scalar, bit-exact " << (cell.bit_exact ? "yes" : "NO")
                << ")\n";
    } else {
      std::cout << "unavailable on this host\n";
    }
  }
  std::cout << "  best kernel speedup vs scalar: " << best_kernel_speedup
            << "x (target 2x " << (best_kernel_speedup >= 2.0 ? "met" : "MISSED")
            << ")\nwrote " << out_path << "\n";
  return bit_exact && matrix_exact ? 0 : 1;
}
