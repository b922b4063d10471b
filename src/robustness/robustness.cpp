#include "robustness/robustness.hpp"

#include <cmath>

namespace ecdra::robustness {

double OnTimeProbability(const CoreQueueModel& core, double now,
                         const pmf::Pmf& exec, double deadline) {
  return pmf::ProbSumLeq(core.ReadyPmf(now), exec, deadline);
}

std::optional<bool> RhoBelowBound(double mean, double variance,
                                  double deadline, double threshold) {
  if (threshold <= 0.0) return false;
  const double slack_seconds =
      kRhoBoundSlack * (std::abs(mean) + std::abs(deadline));
  const double a = std::abs(mean - deadline) - slack_seconds;
  if (!(a > 0.0)) return std::nullopt;  // also catches NaN
  const double sigma =
      std::sqrt(variance * (1.0 + kRhoBoundSlack)) + slack_seconds;
  const double far_mass = sigma * sigma / (sigma * sigma + a * a);
  if (mean > deadline) {
    if (far_mass + kRhoBoundSlack < threshold) return true;
  } else if (far_mass + kRhoBoundSlack <= 1.0 - threshold) {
    return false;
  }
  return std::nullopt;
}

double CoreRobustness(const CoreQueueModel& core, double now) {
  if (core.idle()) return 0.0;
  // Completion pmf of the running task, then chain convolutions down the
  // queue (§IV-B's final paragraph), accumulating each task's on-time mass.
  // The chain runs in one buffer: ConvolveInto's output may alias its input.
  pmf::Pmf completion = *core.running()->exec;
  completion.ShiftInPlace(core.running_start());
  completion.TruncateBelowInPlace(now);
  double expected_on_time = completion.CdfAt(core.running()->deadline);
  for (const ModeledTask& task : core.queued()) {
    expected_on_time += pmf::ProbSumLeq(completion, *task.exec, task.deadline);
    pmf::ConvolveInto(completion, *task.exec, pmf::Pmf::kDefaultMaxImpulses,
                      completion);
  }
  return expected_on_time;
}

double SystemRobustness(std::span<const CoreQueueModel> cores, double now) {
  double total = 0.0;
  for (const CoreQueueModel& core : cores) {
    total += CoreRobustness(core, now);
  }
  return total;
}

}  // namespace ecdra::robustness
