// Robustness filter (§V-F): eliminates candidate assignments whose
// probability of completing the task by its deadline, rho(i,j,k,pi,t_l,z),
// falls below a threshold (the paper found rho_thresh = 0.5 effective —
// strict enough to drop hopeless assignments, loose enough not to force
// every task into the high-power P-states).
#pragma once

#include <memory>
#include <span>

#include "core/filter.hpp"

namespace ecdra::core {

class RobustnessFilter final : public Filter {
 public:
  explicit RobustnessFilter(double threshold = 0.5);

  void Apply(MappingContext& ctx) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "rob";
  }
  [[nodiscard]] double threshold() const noexcept { return threshold_; }

 private:
  double threshold_;
};

/// The largest threshold of any RobustnessFilter in `chain`, or 0 when it
/// has none. A filter that wraps a RobustnessFilter is not seen, so callers
/// that act on the threshold fall back to running the chain.
[[nodiscard]] double RobustnessThreshold(
    std::span<const std::unique_ptr<Filter>> chain) noexcept;

}  // namespace ecdra::core
