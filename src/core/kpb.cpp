#include "core/kpb.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.hpp"

namespace ecdra::core {

KpbHeuristic::KpbHeuristic(double percent) : percent_(percent) {
  ECDRA_REQUIRE(percent > 0.0 && percent <= 100.0,
                "KPB percent must be in (0, 100]");
}

std::optional<Candidate> KpbHeuristic::Select(const MappingContext& ctx) {
  const auto& candidates = ctx.candidates();
  if (candidates.empty()) return std::nullopt;

  // Keep the ceil(k%) smallest-EET candidates (at least one).
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             static_cast<double>(candidates.size()) * percent_ / 100.0)));
  std::vector<Candidate> by_eet(candidates);
  std::nth_element(by_eet.begin(), by_eet.begin() + (keep - 1), by_eet.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.eet < b.eet;
                   });
  by_eet.resize(keep);
  return FirstMinimum(by_eet, [&ctx](const Candidate& candidate) {
    return ctx.ExpectedCompletionTime(candidate);
  });
}

}  // namespace ecdra::core
