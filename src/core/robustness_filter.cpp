#include "core/robustness_filter.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ecdra::core {

RobustnessFilter::RobustnessFilter(double threshold) : threshold_(threshold) {
  ECDRA_REQUIRE(threshold >= 0.0 && threshold <= 1.0,
                "robustness threshold must be a probability");
}

void RobustnessFilter::Apply(MappingContext& ctx) {
  std::erase_if(ctx.candidates(), [this, &ctx](const Candidate& candidate) {
    return ctx.RhoBelow(candidate, threshold_);
  });
}

double RobustnessThreshold(
    std::span<const std::unique_ptr<Filter>> chain) noexcept {
  double threshold = 0.0;
  for (const auto& filter : chain) {
    if (const auto* rob = dynamic_cast<const RobustnessFilter*>(filter.get())) {
      threshold = std::max(threshold, rob->threshold());
    }
  }
  return threshold;
}

}  // namespace ecdra::core
