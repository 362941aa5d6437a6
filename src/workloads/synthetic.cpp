#include "workloads/synthetic.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "space/parameter.hpp"
#include "util/contracts.hpp"

namespace pwu::workloads {

namespace {

class CustomWorkload final : public Workload {
 public:
  CustomWorkload(std::string name, space::ParameterSpace space,
                 std::function<double(const space::Configuration&)> base_time,
                 sim::NoiseModel noise_model)
      : name_(std::move(name)),
        space_(std::move(space)),
        base_time_(std::move(base_time)),
        noise_(noise_model) {}

  const std::string& name() const override { return name_; }
  const space::ParameterSpace& space() const override { return space_; }
  const sim::NoiseModel& noise() const override { return noise_; }

  double base_time(const space::Configuration& config) const override {
    return base_time_(config);
  }

 private:
  std::string name_;
  space::ParameterSpace space_;
  std::function<double(const space::Configuration&)> base_time_;
  sim::NoiseModel noise_;
};

}  // namespace

WorkloadPtr make_custom(
    std::string name, space::ParameterSpace space,
    std::function<double(const space::Configuration&)> base_time,
    sim::NoiseModel noise) {
  return std::make_unique<CustomWorkload>(std::move(name), std::move(space),
                                          std::move(base_time), noise);
}

namespace {

/// Owns the wrapped base workload and applies the platform warp.
class PlatformVariant final : public Workload {
 public:
  PlatformVariant(WorkloadPtr base, double scale, double gamma,
                  double perturbation, std::uint64_t seed)
      : base_(std::move(base)),
        name_(base_->name() + "-variant"),
        scale_(scale),
        gamma_(gamma),
        perturbation_(perturbation),
        seed_(seed) {
    if (scale <= 0.0 || gamma <= 0.0) {
      throw std::invalid_argument(
          "make_platform_variant: scale and gamma must be positive");
    }
    if (perturbation < 0.0 || perturbation >= 1.0) {
      throw std::invalid_argument(
          "make_platform_variant: perturbation must be in [0, 1)");
    }
  }

  const std::string& name() const override { return name_; }
  const space::ParameterSpace& space() const override {
    return base_->space();
  }
  const sim::NoiseModel& noise() const override { return base_->noise(); }

  double base_time(const space::Configuration& config) const override {
    const double t = base_->base_time(config);
    // Deterministic config-specific deviation in [-1, 1]: one draw from an
    // Rng seeded by (seed, config hash).
    util::Rng rng PWU_RNG_STREAM(config_noise)(seed_ ^ config.hash());
    const double z = 2.0 * rng.uniform() - 1.0;
    return scale_ * std::pow(t, gamma_) * (1.0 + perturbation_ * z);
  }

 private:
  WorkloadPtr base_;
  std::string name_;
  double scale_, gamma_, perturbation_;
  std::uint64_t seed_;
};

}  // namespace

WorkloadPtr make_platform_variant(WorkloadPtr base, double scale,
                                  double gamma, double perturbation,
                                  std::uint64_t seed) {
  return std::make_unique<PlatformVariant>(std::move(base), scale, gamma,
                                           perturbation, seed);
}

WorkloadPtr make_quadratic_bowl(std::size_t dims, std::size_t levels,
                                double base_seconds, bool noisy) {
  space::ParameterSpace space;
  for (std::size_t d = 0; d < dims; ++d) {
    std::string name = "x";
    name.append(std::to_string(d + 1));
    space.add(space::Parameter::int_range(std::move(name), 0,
                                          static_cast<long>(levels) - 1));
  }
  const double center = 0.5 * static_cast<double>(levels - 1);
  const auto scale = static_cast<double>(levels) * static_cast<double>(levels);
  auto time_fn = [dims, center, scale,
                  base_seconds](const space::Configuration& c) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double x = static_cast<double>(c.level(d)) - center;
      // Increasing weights make later dimensions matter more, so feature
      // importance has a known ordering for the tests.
      acc += (1.0 + static_cast<double>(d)) * x * x / scale;
    }
    return base_seconds * (1.0 + acc);
  };
  sim::NoiseModel noise = sim::NoiseModel::none();
  if (noisy) {
    noise.lognormal_sigma = 0.05;
    noise.spike_probability = 0.01;
    noise.spike_scale = 1.5;
  }
  return make_custom("quadratic_bowl", std::move(space), std::move(time_fn),
                     noise);
}

WorkloadPtr make_mixed_modes(std::size_t modes, std::size_t dims,
                             std::size_t levels, double base_seconds) {
  space::ParameterSpace space;
  std::vector<std::string> mode_labels;
  mode_labels.reserve(modes);
  for (std::size_t m = 0; m < modes; ++m) {
    mode_labels.push_back("mode" + std::to_string(m));
  }
  space.add(space::Parameter::categorical("mode", std::move(mode_labels)));
  for (std::size_t d = 0; d < dims; ++d) {
    std::string name = "x";
    name.append(std::to_string(d + 1));
    space.add(space::Parameter::int_range(std::move(name), 0,
                                          static_cast<long>(levels) - 1));
  }
  const auto span = static_cast<double>(levels - 1);
  auto time_fn = [dims, span, base_seconds](const space::Configuration& c) {
    const auto mode = static_cast<double>(c.level(0));
    // Golden-ratio scrambling makes the per-mode bowl center and base cost
    // deliberately non-monotone in the level index: the index carries no
    // ordinal information, so a model must treat the feature as genuinely
    // categorical (set-membership) to predict well.
    constexpr double kGolden = 0.6180339887498949;
    const double center =
        span * std::fmod(0.37 + mode * kGolden, 1.0);
    const double mode_cost =
        0.5 + 2.0 * std::fmod(0.11 + mode * 2.0 * kGolden, 1.0);
    double acc = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double x = static_cast<double>(c.level(d + 1)) - center;
      acc += x * x / (span * span);
    }
    return base_seconds * (mode_cost + acc);
  };
  return make_custom("mixed_modes", std::move(space), std::move(time_fn));
}

}  // namespace pwu::workloads
