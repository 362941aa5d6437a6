// AVX2 tier of the tree-evaluation kernels — the only TU compiled with
// -mavx2 (set per-source in src/CMakeLists.txt). Nothing here runs unless
// simd_eval.cpp's cpuid dispatch selected Level::Avx2, so the binary stays
// safe on plain x86-64; no vector constant may live at namespace scope
// (its static initializer would execute AVX instructions unconditionally).
//
// Shape (flat16): 32 rows advance per tree level as eight independent
// 4-lane groups. Each level costs two *dependent* gathers per group (node
// metadata, then the row value the gathered feature index selects), so a
// single chain is pure gather latency; eight chains keep enough line fills
// in flight to cover it. Per level and group:
//
//   meta  <- 64-bit gather of each node's {feature, left} word
//   thr   <- gather of each node's payload double
//   vals  <- masked gather of row[feature] (leaf lanes suppressed — their
//            lane of the mask is zero, so no memory access happens)
//   le    <- _CMP_LE_OQ vals vs thr (false on NaN, like scalar `v <= t`)
//   cur   <- blend(left + !le, cur) — leaf lanes hold position
//
// Shape (quant8): the rank precompute (see QuantTreeKernel) has already
// collapsed every threshold compare into `code >= rank`, so the walk is
// pure 32-bit integer work: 32 rows as four 8-lane epi32 groups, three
// int gathers per level and group (node lo word, node left word, and the
// rank from a block-resident L1-sized table) — no double gathers at all.
//
// The blend mask must be the full-lane is-leaf compare, never the feature
// word itself: _mm_blendv_epi8 selects per *byte*, and a positive feature
// index with a high bit set in some byte (e.g. 0x80) would otherwise
// splice indices from both operands.

#include "rf/simd_eval.hpp"

#ifdef PWU_SIMD_HAS_AVX2

#include <immintrin.h>

#include <cstdint>

#include "rf/flat_forest.hpp"
#include "rf/quantized_layout.hpp"

#if defined(__GNUC__) && !defined(__clang__)
// gcc's avx2intrin.h wraps the unmasked-gather builtins so their merge
// operand looks maybe-uninitialized once kernel state lives in small
// arrays; the gathers write every lane unconditionally, so the operand is
// never observed. Silence the header-attributed false positive TU-wide.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace pwu::rf::simd::detail {

namespace {

/// Low dwords of four 64-bit lanes, compacted into a __m128i.
inline __m128i compact_even(__m256i v) {
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, perm));
}

/// High dwords of four 64-bit lanes.
inline __m128i compact_odd(__m256i v) {
  const __m256i perm = _mm256_setr_epi32(1, 3, 5, 7, 0, 2, 4, 6);
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, perm));
}

/// Scalar walks for the < 8 leftover rows of a block (row-independent, so
/// the grouping change cannot alter any output bit).
inline double flat_tail_one(const FlatNode* nodes, const double* row) {
  std::uint32_t i = 0;
  for (;;) {
    const FlatNode node = nodes[i];
    if (node.feature < 0) return node.payload;
    i = static_cast<std::uint32_t>(node.left) +
        (row[node.feature] <= node.payload ? 0u : 1u);
  }
}

inline double quant_tail_one(const QuantNode* nodes, const std::int32_t* rrow,
                             const double* leaf_values) {
  std::uint32_t i = 0;
  for (;;) {
    const QuantNode node = nodes[i];
    if (node.is_leaf()) return leaf_values[node.left];
    i = static_cast<std::uint32_t>(node.left) +
        (static_cast<std::int32_t>(node.code) >= rrow[node.feature] ? 0u : 1u);
  }
}

}  // namespace

void flat_tree_avx2(const FlatNode* nodes, const double* rows,
                    std::size_t stride, std::size_t n, double* out) {
  const __m128i one = _mm_set1_epi32(1);
  const __m128i zero = _mm_setzero_si128();
  const __m128i fmask = _mm_set1_epi32(FlatNode::kFeatureMask);
  const __m256i neg1_64 = _mm256_set1_epi64x(-1);
  const int s = static_cast<int>(stride);
  const __m128i row_off = _mm_setr_epi32(0, s, 2 * s, 3 * s);
  const auto* meta_base = reinterpret_cast<const long long*>(nodes) + 1;
  const auto* payload_base = reinterpret_cast<const double*>(nodes);

  // One tree level for one 4-lane group: gathers node metadata, compares,
  // steps the non-leaf lanes. Returns the updated indices; `feat` was
  // already gathered by the caller (it also drives the done check).
  const auto step = [&](__m128i cur, __m128i feat, __m128i left, __m128i idx,
                        const double* base) {
    const __m256d thr = _mm256_i32gather_pd(payload_base, idx, 8);
    const __m256i active =
        _mm256_cmpgt_epi64(_mm256_cvtepi32_epi64(feat), neg1_64);
    const __m128i cols = _mm_and_si128(feat, fmask);
    const __m128i offs = _mm_add_epi32(row_off, cols);
    const __m256d vals = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), base, offs, _mm256_castsi256_pd(active), 8);
    const __m256d le = _mm256_cmp_pd(vals, thr, _CMP_LE_OQ);
    const __m128i le32 = compact_even(_mm256_castpd_si256(le));
    const __m128i next = _mm_add_epi32(left, _mm_andnot_si128(le32, one));
    const __m128i is_leaf = _mm_cmpgt_epi32(zero, feat);
    return _mm_blendv_epi8(next, cur, is_leaf);
  };

  constexpr int kGroups = 8;
  constexpr std::size_t kBlock = 4 * kGroups;
  std::size_t r = 0;
  for (; r + kBlock <= n; r += kBlock) {
    __m128i cur[kGroups];
    const double* base[kGroups];
    for (int g = 0; g < kGroups; ++g) {
      cur[g] = zero;
      base[g] = rows + (r + 4 * static_cast<std::size_t>(g)) * stride;
    }
    for (;;) {
      // Issue every group's metadata gather before consuming any of them,
      // so the four line fills overlap instead of serializing.
      __m128i idx[kGroups];
      __m256i meta[kGroups];
      for (int g = 0; g < kGroups; ++g) {
        idx[g] = _mm_slli_epi32(cur[g], 1);
        meta[g] = _mm256_i32gather_epi64(meta_base, idx[g], 8);
      }
      __m128i feat[kGroups];
      int leaves = 0xF;
      for (int g = 0; g < kGroups; ++g) {
        feat[g] = compact_even(meta[g]);
        leaves &= _mm_movemask_ps(_mm_castsi128_ps(feat[g]));
      }
      if (leaves == 0xF) break;  // every lane of every group on a leaf
      for (int g = 0; g < kGroups; ++g) {
        cur[g] = step(cur[g], feat[g], compact_odd(meta[g]), idx[g], base[g]);
      }
    }
    for (int g = 0; g < kGroups; ++g) {
      _mm256_storeu_pd(
          out + r + 4 * static_cast<std::size_t>(g),
          _mm256_i32gather_pd(payload_base, _mm_slli_epi32(cur[g], 1), 8));
    }
  }
  for (; r < n; ++r) out[r] = flat_tail_one(nodes, rows + r * stride);
}

void quant_tree_avx2(const QuantNode* nodes, const std::int32_t* ranks,
                     std::size_t rank_stride, const double* leaf_values,
                     std::size_t n, double* out) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i all_ones = _mm256_set1_epi32(-1);
  const __m256i leaf_sentinel =
      _mm256_set1_epi32(static_cast<int>(QuantNode::kLeafSentinel));
  const __m256i low16 = _mm256_set1_epi32(0xFFFF);
  const int rs = static_cast<int>(rank_stride);
  const __m256i row_off =
      _mm256_setr_epi32(0, rs, 2 * rs, 3 * rs, 4 * rs, 5 * rs, 6 * rs, 7 * rs);
  const auto* node_base = reinterpret_cast<const int*>(nodes);

  // One tree level for one 8-lane group: `lo` ({feature | code << 16}) and
  // `left` were already gathered by the caller. The rank gather is masked
  // so leaf lanes (feat = 0xFFFF, an out-of-table offset) touch no memory.
  const auto step = [&](__m256i cur, __m256i lo, __m256i left,
                        __m256i is_leaf, const std::int32_t* rbase) {
    const __m256i feat = _mm256_and_si256(lo, low16);
    const __m256i code = _mm256_srli_epi32(lo, 16);
    const __m256i not_leaf = _mm256_xor_si256(is_leaf, all_ones);
    const __m256i offs = _mm256_add_epi32(row_off, feat);
    const __m256i rank =
        _mm256_mask_i32gather_epi32(zero, rbase, offs, not_leaf, 4);
    // Right iff rank > code (i.e. !(code >= rank)); both fit int32.
    const __m256i go_right = _mm256_cmpgt_epi32(rank, code);
    const __m256i next =
        _mm256_add_epi32(left, _mm256_and_si256(go_right, one));
    return _mm256_blendv_epi8(next, cur, is_leaf);
  };

  constexpr int kGroups = 8;
  constexpr std::size_t kBlock = 8 * kGroups;
  std::size_t r = 0;
  for (; r + kBlock <= n; r += kBlock) {
    __m256i cur[kGroups];
    const std::int32_t* rbase[kGroups];
    for (int g = 0; g < kGroups; ++g) {
      cur[g] = zero;
      rbase[g] = ranks + (r + 8 * static_cast<std::size_t>(g)) * rank_stride;
    }
    for (;;) {
      // Issue every group's node gathers before consuming any of them.
      __m256i lo[kGroups];
      __m256i left[kGroups];
      for (int g = 0; g < kGroups; ++g) {
        const __m256i idx = _mm256_slli_epi32(cur[g], 1);
        lo[g] = _mm256_i32gather_epi32(node_base, idx, 4);
        left[g] = _mm256_i32gather_epi32(node_base + 1, idx, 4);
      }
      __m256i is_leaf[kGroups];
      int leaves = 0xFF;
      for (int g = 0; g < kGroups; ++g) {
        is_leaf[g] = _mm256_cmpeq_epi32(_mm256_and_si256(lo[g], low16),
                                        leaf_sentinel);
        leaves &= _mm256_movemask_ps(_mm256_castsi256_ps(is_leaf[g]));
      }
      if (leaves == 0xFF) {
        // Every lane on a leaf: `left` holds leaf-table indices.
        for (int g = 0; g < kGroups; ++g) {
          double* dst = out + r + 8 * static_cast<std::size_t>(g);
          _mm256_storeu_pd(
              dst, _mm256_i32gather_pd(leaf_values,
                                       _mm256_castsi256_si128(left[g]), 8));
          _mm256_storeu_pd(
              dst + 4,
              _mm256_i32gather_pd(leaf_values,
                                  _mm256_extracti128_si256(left[g], 1), 8));
        }
        break;
      }
      for (int g = 0; g < kGroups; ++g) {
        cur[g] = step(cur[g], lo[g], left[g], is_leaf[g], rbase[g]);
      }
    }
  }
  for (; r < n; ++r) {
    out[r] = quant_tail_one(nodes, ranks + r * rank_stride, leaf_values);
  }
}

}  // namespace pwu::rf::simd::detail

#else  // PWU_SIMD_HAS_AVX2

// The AVX2 tier is compiled out (PWU_SIMD=off, or no -mavx2): keep the TU
// non-empty without emitting symbols the dispatcher cannot reference.
namespace pwu::rf::simd::detail {}

#endif  // PWU_SIMD_HAS_AVX2
