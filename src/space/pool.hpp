// Candidate-pool construction and the Algorithm-1 bookkeeping container.
//
// The paper samples 10,000 unique configurations uniformly from the space as
// a surrogate of the full space, then splits them 7000 (pool) / 3000 (test).
// `CandidatePool` supports O(1) removal of selected configurations so the
// active-learning loop never re-selects an evaluated sample.

#pragma once

#include <vector>

#include "space/configuration.hpp"
#include "space/parameter_space.hpp"
#include "util/rng.hpp"

namespace pwu::space {

/// Draws `count` *distinct* uniform configurations. Throws
/// std::invalid_argument when the space holds fewer than `count` points;
/// uses rejection sampling with a hash set (spaces here are >> count).
std::vector<Configuration> sample_unique(const ParameterSpace& space,
                                         std::size_t count, util::Rng& rng);

struct PoolSplit {
  std::vector<Configuration> pool;
  std::vector<Configuration> test;
};

/// Samples pool_size + test_size unique configurations and splits them.
/// Small discrete spaces (kripke/hypre hold only a few thousand points) are
/// enumerated, shuffled, and split in the requested proportion instead — the
/// pool then simply covers the whole space, which matches how such spaces
/// are tuned in practice.
PoolSplit make_pool_split(const ParameterSpace& space, std::size_t pool_size,
                          std::size_t test_size, util::Rng& rng);

/// Mutable view of the unlabeled pool X_pool in Algorithm 1.
/// Removal is swap-with-last, so indices are only stable until the next
/// `take`; strategies receive fresh predictions each iteration and therefore
/// always work with current indices.
class CandidatePool {
 public:
  explicit CandidatePool(std::vector<Configuration> configs);

  std::size_t size() const { return configs_.size(); }
  bool empty() const { return configs_.empty(); }

  const Configuration& at(std::size_t i) const { return configs_.at(i); }

  /// Removes and returns the configuration at `i`.
  Configuration take(std::size_t i);

  /// k distinct random indices into the current pool.
  std::vector<std::size_t> sample_indices(std::size_t k, util::Rng& rng) const;

  const std::vector<Configuration>& configs() const { return configs_; }

 private:
  std::vector<Configuration> configs_;
};

}  // namespace pwu::space
