#include "space/pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "util/contracts.hpp"

namespace pwu::space {

std::vector<Configuration> sample_unique(const ParameterSpace& space,
                                         std::size_t count, util::Rng& rng) {
  if (static_cast<long double>(count) > space.size()) {
    throw std::invalid_argument(
        "sample_unique: requested more configurations than the space holds");
  }
  std::unordered_set<Configuration, ConfigurationHash> seen;
  seen.reserve(count * 2);
  std::vector<Configuration> out;
  out.reserve(count);
  // Rejection sampling; expected retries are negligible because autotuning
  // spaces are many orders of magnitude larger than the pool. A safety cap
  // guards degenerate tiny spaces.
  const std::size_t max_attempts = 100 * count + 10000;
  std::size_t attempts = 0;
  while (out.size() < count) {
    if (++attempts > max_attempts) {
      throw std::runtime_error(
          "sample_unique: too many rejections (space too small relative to "
          "requested count)");
    }
    Configuration c = space.random_config(rng);
    if (seen.insert(c).second) {
      out.push_back(std::move(c));
    }
  }
  return out;
}

PoolSplit make_pool_split(const ParameterSpace& space, std::size_t pool_size,
                          std::size_t test_size,
                          util::Rng& rng PWU_RNG_STREAM(pool_split)) {
  const std::size_t requested = pool_size + test_size;
  if (space.size() <= static_cast<long double>(requested)) {
    // Enumerable space: split the whole space in the requested proportion.
    std::vector<Configuration> everything = space.enumerate();
    rng.shuffle(everything);
    const double pool_fraction =
        static_cast<double>(pool_size) / static_cast<double>(requested);
    auto cut = static_cast<std::size_t>(
        pool_fraction * static_cast<double>(everything.size()));
    cut = std::clamp<std::size_t>(cut, 1, everything.size() - 1);
    PoolSplit split;
    split.pool.assign(everything.begin(),
                      everything.begin() + static_cast<std::ptrdiff_t>(cut));
    split.test.assign(everything.begin() + static_cast<std::ptrdiff_t>(cut),
                      everything.end());
    return split;
  }
  std::vector<Configuration> all = sample_unique(space, requested, rng);
  // `sample_unique` returns configurations in random draw order, so the
  // prefix/suffix split is itself a uniform split.
  PoolSplit split;
  split.pool.assign(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(pool_size));
  split.test.assign(all.begin() + static_cast<std::ptrdiff_t>(pool_size),
                    all.end());
  return split;
}

CandidatePool::CandidatePool(std::vector<Configuration> configs)
    : configs_(std::move(configs)) {}

Configuration CandidatePool::take(std::size_t i) {
  if (i >= configs_.size()) {
    throw std::out_of_range("CandidatePool::take: index out of range");
  }
  std::swap(configs_[i], configs_.back());
  Configuration taken = std::move(configs_.back());
  configs_.pop_back();
  return taken;
}

std::vector<std::size_t> CandidatePool::sample_indices(std::size_t k,
                                                       util::Rng& rng PWU_RNG_STREAM(sampling)) const {
  if (k > configs_.size()) {
    throw std::invalid_argument("CandidatePool::sample_indices: k > size");
  }
  return rng.sample_without_replacement(configs_.size(), k);
}

}  // namespace pwu::space
