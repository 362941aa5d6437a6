// Scalar kernel tier plus the runtime dispatch machinery.
// The AVX2 tier lives in simd_eval_avx2.cpp (its own TU so only that file
// is compiled with -mavx2; this TU must stay runnable on any x86-64).

#include "rf/simd_eval.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "rf/flat_forest.hpp"
#include "util/logging.hpp"

namespace pwu::rf::simd {

namespace {

/// Rows walked in lockstep by the scalar tier: a single row's walk is a
/// chain of dependent loads, so stepping a group of rows through the same
/// tree keeps that many independent chains in flight.
constexpr std::size_t kScalarGroup = 8;

// ---- scalar tier -----------------------------------------------------------

template <bool kMixed>
void tree_scalar(const RankNode* nodes, const std::int32_t* ranks,
                 std::size_t rank_stride, const std::uint64_t* cat_masks,
                 const double* leaf_values, std::size_t n, double* out) {
  for (std::size_t r = 0; r < n; r += kScalarGroup) {
    const std::size_t g = std::min(kScalarGroup, n - r);
    const std::int32_t* rbase = ranks + r * rank_stride;
    std::uint32_t cur[kScalarGroup] = {};
    for (;;) {
      bool active = false;
      for (std::size_t j = 0; j < g; ++j) {
        const RankNode node = nodes[cur[j]];
        if (node.is_leaf()) continue;
        active = true;
        cur[j] = static_cast<std::uint32_t>(node.left) +
                 (node.goes_left<kMixed>(rbase + j * rank_stride, cat_masks)
                      ? 0u
                      : 1u);
      }
      if (!active) break;
    }
    for (std::size_t j = 0; j < g; ++j) {
      out[r + j] = leaf_values[nodes[cur[j]].left];
    }
  }
}

// ---- level selection -------------------------------------------------------

Level min_level(Level a, Level b) {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

/// -1 = no override; otherwise a Level value.
std::atomic<int> g_override{-1};

Level env_level_clamp() {
  static const Level cached = [] {
    const char* env = std::getenv("PWU_SIMD_LEVEL");
    if (env != nullptr && !parse_level(env).has_value()) {
      util::log_warn() << "PWU_SIMD_LEVEL='" << env
                       << "' is not one of scalar|avx2; dispatching scalar";
    }
    return env_level_ceiling(env);
  }();
  return cached;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::Scalar: return "scalar";
    case Level::Avx2: return "avx2";
  }
  return "unknown";
}

std::optional<Level> parse_level(const char* name) {
  const std::string s = name != nullptr ? name : "";
  if (s == "scalar") return Level::Scalar;
  if (s == "avx2") return Level::Avx2;
  return std::nullopt;
}

Level env_level_ceiling(const char* value) {
  if (value == nullptr) return Level::Avx2;
  return parse_level(value).value_or(Level::Scalar);
}

Level detected_level() {
  static const Level cached = [] {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#ifdef PWU_SIMD_HAS_AVX2
    if (__builtin_cpu_supports("avx2")) return Level::Avx2;
#endif
#endif
    return Level::Scalar;
  }();
  return cached;
}

Level active_level() {
  Level level = min_level(detected_level(), env_level_clamp());
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) {
    level = min_level(detected_level(), static_cast<Level>(forced));
  }
  return level;
}

void set_level_override(Level level) {
  g_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void clear_level_override() {
  g_override.store(-1, std::memory_order_relaxed);
}

TreeKernel tree_kernel(Level level, bool mixed) {
  level = min_level(level, detected_level());
  switch (level) {
#ifdef PWU_SIMD_HAS_AVX2
    case Level::Avx2:
      return mixed ? detail::tree_avx2<true> : detail::tree_avx2<false>;
#endif
    default: return mixed ? tree_scalar<true> : tree_scalar<false>;
  }
}

}  // namespace pwu::rf::simd
