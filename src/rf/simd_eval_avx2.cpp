// AVX2 tier of the tree-evaluation kernels — the only TU compiled with
// -mavx2 (set per-source in src/CMakeLists.txt). Nothing here runs unless
// simd_eval.cpp's cpuid dispatch selected Level::Avx2, so the binary stays
// safe on plain x86-64; no vector constant may live at namespace scope
// (its static initializer would execute AVX instructions unconditionally).
//
// Shape: the rank precompute (see TreeKernel) has already collapsed every
// threshold compare into `code >= rank` and every categorical value into a
// level, so the walk is pure 32-bit integer work: 64 rows per tree level
// as eight independent 8-lane epi32 groups, three int gathers per level
// and group (node lo word, node left word, and the rank from a
// block-resident L1-sized table); doubles are gathered only from the leaf
// table, once every lane has reached a leaf. Each level's gathers depend
// on the previous level's outcome, so a single chain is pure gather
// latency; eight chains keep enough line fills in flight to cover it.
//
// Trees with a categorical split (kMixed) add one masked gather per level
// and group: lanes on a categorical node whose level is < 64 load 32-bit
// word `2 * code + (level >> 5)` of the mask table (the mask's low or high
// half), shift it right by `level & 31`, and go right iff the low bit is
// clear. Lanes with level 64 load nothing and read 0, so they go right,
// as Split::goes_left sends them. The leaf sentinel 0xFFFF carries the
// categorical bit too, so leaf lanes are masked out of that test.
//
// Every blend mask must be a full-lane compare, never a node word itself:
// _mm256_blendv_epi8 selects per *byte*, and a node word with a high bit
// set in some byte (e.g. feature 0x80) would otherwise splice indices from
// both operands.

#include "rf/simd_eval.hpp"

#ifdef PWU_SIMD_HAS_AVX2

#include <immintrin.h>

#include <cstdint>

#include "rf/flat_forest.hpp"

#if defined(__GNUC__) && !defined(__clang__)
// gcc's avx2intrin.h wraps the unmasked-gather builtins so their merge
// operand looks maybe-uninitialized once kernel state lives in small
// arrays; the gathers write every lane unconditionally, so the operand is
// never observed. Silence the header-attributed false positive TU-wide.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace pwu::rf::simd::detail {

namespace {

/// Scalar walk for the < 64 leftover rows of a block (row-independent, so
/// the grouping change cannot alter any output bit).
template <bool kMixed>
inline double tail_one(const RankNode* nodes, const std::int32_t* rrow,
                       const std::uint64_t* cat_masks,
                       const double* leaf_values) {
  std::uint32_t i = 0;
  for (;;) {
    const RankNode node = nodes[i];
    if (node.is_leaf()) return leaf_values[node.left];
    i = static_cast<std::uint32_t>(node.left) +
        (node.goes_left<kMixed>(rrow, cat_masks) ? 0u : 1u);
  }
}

}  // namespace

template <bool kMixed>
void tree_avx2(const RankNode* nodes, const std::int32_t* ranks,
               std::size_t rank_stride, const std::uint64_t* cat_masks,
               const double* leaf_values, std::size_t n, double* out) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i all_ones = _mm256_set1_epi32(-1);
  const __m256i leaf_sentinel =
      _mm256_set1_epi32(static_cast<int>(RankNode::kLeaf));
  const __m256i low16 = _mm256_set1_epi32(0xFFFF);
  const __m256i feature_bits =
      _mm256_set1_epi32(kMixed ? RankNode::kFeatureMask : 0xFFFF);
  const __m256i cat_bit = _mm256_set1_epi32(RankNode::kCategorical);
  const __m256i no_level =
      _mm256_set1_epi32(static_cast<int>(Split::kNoLevel));
  const __m256i low5 = _mm256_set1_epi32(31);
  const int rs = static_cast<int>(rank_stride);
  const __m256i row_off =
      _mm256_setr_epi32(0, rs, 2 * rs, 3 * rs, 4 * rs, 5 * rs, 6 * rs, 7 * rs);
  const auto* node_base = reinterpret_cast<const int*>(nodes);
  const auto* mask_words = reinterpret_cast<const int*>(cat_masks);

  // One tree level for one 8-lane group: `lo` ({feature | code << 16}) and
  // `left` were already gathered by the caller. The rank gather is masked
  // so leaf lanes (the sentinel's out-of-table feature) touch no memory.
  const auto step = [&](__m256i cur, __m256i lo, __m256i left,
                        __m256i is_leaf, const std::int32_t* rbase) {
    const __m256i feat = _mm256_and_si256(lo, feature_bits);
    const __m256i code = _mm256_srli_epi32(lo, 16);
    const __m256i not_leaf = _mm256_xor_si256(is_leaf, all_ones);
    const __m256i offs = _mm256_add_epi32(row_off, feat);
    const __m256i rank =
        _mm256_mask_i32gather_epi32(zero, rbase, offs, not_leaf, 4);
    // Right iff rank > code (i.e. !(code >= rank)); both fit int32.
    __m256i go_right = _mm256_cmpgt_epi32(rank, code);
    if constexpr (kMixed) {
      const __m256i is_cat = _mm256_andnot_si256(
          is_leaf, _mm256_cmpeq_epi32(_mm256_and_si256(lo, cat_bit), cat_bit));
      const __m256i has_level =
          _mm256_and_si256(is_cat, _mm256_cmpgt_epi32(no_level, rank));
      const __m256i word_idx = _mm256_add_epi32(_mm256_slli_epi32(code, 1),
                                                _mm256_srli_epi32(rank, 5));
      const __m256i word = _mm256_mask_i32gather_epi32(zero, mask_words,
                                                       word_idx, has_level, 4);
      const __m256i bit = _mm256_and_si256(
          _mm256_srlv_epi32(word, _mm256_and_si256(rank, low5)), one);
      go_right =
          _mm256_blendv_epi8(go_right, _mm256_cmpeq_epi32(bit, zero), is_cat);
    }
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
    out[r] = tail_one<kMixed>(nodes, ranks + r * rank_stride, cat_masks,
                              leaf_values);
  }
}

template void tree_avx2<false>(const RankNode*, const std::int32_t*,
                               std::size_t, const std::uint64_t*,
                               const double*, std::size_t, double*);
template void tree_avx2<true>(const RankNode*, const std::int32_t*,
                              std::size_t, const std::uint64_t*,
                              const double*, std::size_t, double*);

}  // namespace pwu::rf::simd::detail

#else  // PWU_SIMD_HAS_AVX2

// The AVX2 tier is compiled out (PWU_SIMD=off, or no -mavx2): keep the TU
// non-empty without emitting symbols the dispatcher cannot reference.
namespace pwu::rf::simd::detail {}

#endif  // PWU_SIMD_HAS_AVX2
