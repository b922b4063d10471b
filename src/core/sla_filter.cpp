#include "core/sla_filter.hpp"

#include <algorithm>

namespace ecdra::core {

void SlaFilter::Apply(MappingContext& ctx) {
  const double floor = ctx.econ().TierOf(ctx.task().tier).rho_floor;
  if (floor <= 0.0) return;
  std::erase_if(ctx.candidates(), [&ctx, floor](const Candidate& candidate) {
    return ctx.RhoBelow(candidate, floor);
  });
}

}  // namespace ecdra::core
