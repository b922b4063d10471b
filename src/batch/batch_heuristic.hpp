// Batch-mode mapping (the alternative regime of [MaA99], and the mode of
// the paper's predecessor [SmA10]). Where the paper's scheduler maps each
// task irrevocably on arrival, a batch-mode resource manager keeps unmapped
// tasks in a global queue and, at every mapping event (task arrival or task
// completion), reconsiders the whole queue against the currently idle
// cores. Cores therefore never hold queued work — only a running task — and
// a task's assignment is only fixed when it actually starts.
//
// The heuristics here are the classic two-phase greedy family: compute each
// task's best feasible assignment, pick one task by a selection rule, commit
// it, repeat until no idle core or no task remains.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "core/assignment.hpp"
#include "workload/task.hpp"

namespace ecdra::batch {

/// One unmapped task at a mapping event, with its feasible candidates
/// (already filtered, and restricted to currently idle cores).
struct BatchTask {
  /// Index into the engine's pending queue.
  std::size_t pending_index = 0;
  const workload::Task* task = nullptr;
  /// A view of storage that outlives the MapBatch call: BatchScheduler's
  /// per-event arena, valid until its next MapEvent.
  std::span<const core::Candidate> candidates;
};

struct BatchAssignment {
  std::size_t pending_index = 0;
  core::Candidate candidate;
};

/// In batch mode every candidate core is idle, so the stochastic quantities
/// collapse to closed forms on the execution pmf:
///   ECT = now + EET,   rho = F_exec(deadline - now).
[[nodiscard]] inline double BatchOnTimeProbability(const core::Candidate& c,
                                                   const workload::Task& task,
                                                   double now) {
  return c.exec->CdfAt(task.deadline - now);
}

class BatchHeuristic {
 public:
  virtual ~BatchHeuristic() = default;

  /// Greedily assigns tasks to distinct cores. `tasks[i].candidates` are
  /// feasible at event time; implementations must not assign two tasks to
  /// the same core. Returns the committed assignments (possibly empty).
  [[nodiscard]] virtual std::vector<BatchAssignment> MapBatch(
      const std::vector<BatchTask>& tasks, double now) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

}  // namespace ecdra::batch
