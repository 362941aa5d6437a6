// Runtime-dispatched SIMD kernels for the tree-evaluation hot path.
//
// This is the only sanctioned doorway to vector intrinsics in the tree
// engine (enforced by the pwu_lint rule `no-unchecked-simd`): callers pick
// a kernel through tree_kernel() and never touch <immintrin.h> themselves.
// The kernels walk FlatForest's 8-byte rank-coded nodes (rf/flat_forest.hpp)
// on a block's precomputed rank slots. Two tiers exist:
//
//   Scalar  portable reference — an 8-row interleaved lockstep walk over a
//           contiguous row block;
//   AVX2    64 rows per tree level as eight 8-lane epi32 groups.
//
// Both tiers route rows identically — a numerical split on `code >= rank`,
// which the rank coding makes exactly `value <= threshold` (NaN to the
// right), a categorical split on its mask's bit for the slot's level
// (level 64, no level, to the right) — and emit the same leaf doubles, so
// the dispatch level never changes a prediction bit. Each tier has two
// variants: one for trees with a categorical split, which tests every
// node's kind, and one for numerical-only trees, which skips that test.
//
// Selection: AVX2 wins when it is compiled in (PWU_SIMD CMake option,
// auto|off) and supported by the running CPU; the PWU_SIMD_LEVEL
// environment variable (scalar|avx2) or set_level_override() clamps it
// down — that is how the `simd` ctest preset pins the scalar fallback on
// AVX2 hosts, and how bench/micro_rf sweeps the tiers. An unrecognised
// PWU_SIMD_LEVEL clamps to scalar, never up.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace pwu::rf {

struct RankNode;

namespace simd {

enum class Level { Scalar = 0, Avx2 = 1 };

const char* level_name(Level level);

/// Strongest tier both compiled in and supported by this CPU.
Level detected_level();

/// detected_level() clamped by the PWU_SIMD_LEVEL environment variable
/// (read once) and by any set_level_override() — what dispatch actually
/// uses.
Level active_level();

/// Test/bench hook: force a level (still clamped to detected_level()).
void set_level_override(Level level);
void clear_level_override();

/// Evaluates one tree over `n` consecutive rows, driven by the block's
/// precomputed rank slots instead of raw feature doubles: row r's slots
/// live at ranks + r * rank_stride. For a numerical feature f, ranks[r][f]
/// is the first code in f's codebook whose threshold is >= the row's value
/// (the feature's past-the-end code for NaN), and a split routes left iff
/// `node.code >= rank` — exactly `value <= thresholds[code]`. For a
/// categorical feature it is the row's level (Split::level_of, 64 for
/// none), and a split routes left iff bit `level` of cat_masks[node.code]
/// is set. The whole walk is 32-bit integer work against block-resident
/// tables. out[r] receives leaf_values[leaf.left] of the leaf row r
/// reaches.
using TreeKernel = void (*)(const RankNode* nodes, const std::int32_t* ranks,
                            std::size_t rank_stride,
                            const std::uint64_t* cat_masks,
                            const double* leaf_values, std::size_t n,
                            double* out);

/// Kernel for `level`, clamped to detected_level(): the variant for trees
/// with a categorical split when `mixed`, else the numerical-only one.
TreeKernel tree_kernel(Level level, bool mixed);

/// Parses "scalar"/"avx2" (nullopt otherwise).
std::optional<Level> parse_level(const char* name);

/// The ceiling a PWU_SIMD_LEVEL value puts on dispatch: none (Avx2) when
/// the variable is unset (nullptr), the named level when parse_level
/// recognises it, and Scalar for any other value — a typo or a retired
/// tier name must never lift a scalar pin. active_level() reads the
/// variable once through this and warns about an unrecognised value.
Level env_level_ceiling(const char* value);

namespace detail {

/// AVX2 tier, defined in simd_eval_avx2.cpp — the one TU built with
/// -mavx2. Only referenced by dispatch when PWU_SIMD_HAS_AVX2 is set;
/// never call directly (the running CPU may not support AVX2).
template <bool kMixed>
void tree_avx2(const RankNode* nodes, const std::int32_t* ranks,
               std::size_t rank_stride, const std::uint64_t* cat_masks,
               const double* leaf_values, std::size_t n, double* out);

}  // namespace detail

}  // namespace simd

}  // namespace pwu::rf
