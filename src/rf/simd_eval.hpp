// Runtime-dispatched SIMD kernels for the flat tree-evaluation hot path.
//
// This is the only sanctioned doorway to vector intrinsics in the tree
// engine (enforced by the pwu_lint rule `no-unchecked-simd`): callers pick
// a kernel through flat_tree_kernel()/quant_tree_kernel() and never touch
// <immintrin.h> themselves. Two tiers exist per node layout:
//
//   Scalar  portable reference — the 8-row interleaved lockstep walk the
//           pre-SIMD engine ran, restated over a contiguous row block;
//   AVX2    flat16: 32 rows per tree level as eight 4-lane gather groups;
//           quant8: 32 rows as four 8-lane epi32 groups walking on
//           precomputed threshold ranks (see QuantTreeKernel).
//
// Every tier routes rows identically (the same `value <= threshold`
// ordered-compare semantics, NaN to the right — the quant rank coding
// reproduces it bit-for-bit in integer space) and emits the same leaf
// doubles, so the dispatch level never changes a prediction bit. Kernels
// handle numerical splits only: trees containing categorical splits take
// the llround set-membership walk in flat_forest.cpp regardless of level.
//
// Selection: AVX2 wins when it is compiled in (PWU_SIMD CMake option,
// auto|off) and supported by the running CPU; the PWU_SIMD_LEVEL
// environment variable (scalar|avx2) or set_level_override() clamps it
// down — that is how the `simd` ctest preset pins the scalar fallback on
// AVX2 hosts, and how bench/micro_rf sweeps the matrix. An unrecognised
// PWU_SIMD_LEVEL clamps to scalar, never up.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace pwu::rf {

struct FlatNode;
struct QuantNode;

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

/// Evaluates one tree (numerical splits only) over `n` consecutive rows:
/// row r starts at rows + r * stride. out[r] receives the leaf payload.
using FlatTreeKernel = void (*)(const FlatNode* nodes, const double* rows,
                                std::size_t stride, std::size_t n,
                                double* out);

/// Same contract over the 8-byte quantized layout, but driven by the
/// precomputed rank matrix instead of raw feature doubles: row r's ranks
/// live at ranks + r * rank_stride, and ranks[r][f] is the first code in
/// feature f's codebook whose threshold is >= the row's value (the
/// feature's past-the-end code for NaN). A split routes left iff
/// `node.code >= rank` — exactly `value <= thresholds[code]` — so the
/// whole walk is 32-bit integer compares against a block-resident table.
/// `leaf_values` is the leaf table (indexed by a leaf's QuantNode::left).
using QuantTreeKernel = void (*)(const QuantNode* nodes,
                                 const std::int32_t* ranks,
                                 std::size_t rank_stride,
                                 const double* leaf_values, std::size_t n,
                                 double* out);

/// Kernel for `level`, clamped to detected_level().
FlatTreeKernel flat_tree_kernel(Level level);
QuantTreeKernel quant_tree_kernel(Level level);

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
void flat_tree_avx2(const FlatNode* nodes, const double* rows,
                    std::size_t stride, std::size_t n, double* out);
void quant_tree_avx2(const QuantNode* nodes, const std::int32_t* ranks,
                     std::size_t rank_stride, const double* leaf_values,
                     std::size_t n, double* out);

}  // namespace detail

}  // namespace simd

}  // namespace pwu::rf
