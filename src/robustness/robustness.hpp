// Robustness measures (§IV-C).
//
// The robustness of an allocation at time t_l is the expected number of
// tasks that complete by their individual deadlines, rho(t_l) (Eq. 4) —
// a sum of per-core terms (Eq. 3), each the sum over assigned tasks of the
// probability the task finishes by its deadline. For immediate-mode mapping
// the per-assignment quantity rho(i,j,k,pi,t_l,z) — the probability a
// candidate assignment of task z meets its deadline — is what heuristics and
// the robustness filter consume.
#pragma once

#include <optional>
#include <span>

#include "pmf/pmf.hpp"
#include "robustness/core_queue_model.hpp"

namespace ecdra::robustness {

/// rho(i,j,k,pi,t_l,z): probability that task z, with execution-time pmf
/// `exec` (already specialized to the candidate node and P-state), completes
/// by `deadline` if appended to `core`'s queue at time `now`.
[[nodiscard]] double OnTimeProbability(const CoreQueueModel& core, double now,
                                       const pmf::Pmf& exec, double deadline);

/// Answers "rho < threshold?" for a completion time C with mean `mean` and
/// variance at most `variance`, where rho = P(C <= deadline), without C's
/// pmf. Cantelli's one-sided inequality gives, for a = |mean - deadline| > 0,
/// rho <= var / (var + a^2) when the mean misses the deadline by a and
/// 1 - rho <= var / (var + a^2) when it beats it by a. nullopt when that
/// cannot decide; every threshold <= 0 answers false (rho >= 0).
///
/// Decided answers equal `ProbSumLeq(ready, exec, deadline) < threshold` as
/// computed, given `mean` and `variance` from CoreQueueModel::ReadyMoments
/// plus the exec pmf's: a shrinks and the standard deviation grows by
/// kRhoBoundSlack x (|mean| + |deadline|) seconds, the variance is inflated
/// by (1 + kRhoBoundSlack), and the probability comparison keeps
/// kRhoBoundSlack clear of the threshold (docs/ARCHITECTURE.md,
/// "robustness").
[[nodiscard]] std::optional<bool> RhoBelowBound(double mean, double variance,
                                                double deadline,
                                                double threshold);

/// The relative floating-point slack of RhoBelowBound. Stored pmfs may carry
/// mass 1 +- Pmf::kMassTolerance, which moves an unnormalized mean by that
/// fraction of its magnitude, a variance by that fraction of itself and a
/// ProbSumLeq result by twice that; the rounding of convolution, compaction
/// and the running sums stays orders of magnitude below.
inline constexpr double kRhoBoundSlack = 16.0 * pmf::Pmf::kMassTolerance;

/// rho(i,j,k,t_l), Eq. 3: expected number of on-time completions among the
/// tasks currently assigned to `core`.
[[nodiscard]] double CoreRobustness(const CoreQueueModel& core, double now);

/// rho(t_l), Eq. 4: expected on-time completions across the whole cluster.
[[nodiscard]] double SystemRobustness(std::span<const CoreQueueModel> cores,
                                      double now);

}  // namespace ecdra::robustness
