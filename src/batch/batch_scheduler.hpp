// Batch-mode resource manager: at every mapping event it builds the
// feasible candidate set of every unmapped task (idle cores only), runs the
// same core::Filter chain the immediate-mode scheduler uses — through a
// batch-shaped MappingContext whose stochastic quantities take their
// idle-core closed forms — and lets a two-phase BatchHeuristic commit
// assignments. The energy estimate is charged exactly as in the
// immediate-mode scheduler (§V-F): the EEC of every assignment made.
#pragma once

#include <memory>
#include <vector>

#include "batch/batch_heuristic.hpp"
#include "batch/batch_heuristics.hpp"
#include "cluster/cluster.hpp"
#include "core/energy_estimator.hpp"
#include "core/filter.hpp"
#include "core/scheduler.hpp"
#include "validate/validation.hpp"
#include "workload/task_type_table.hpp"

namespace ecdra::batch {

class BatchScheduler {
 public:
  /// `filters` is the same chain core::MakeFilterChain builds for the
  /// immediate stack ("none"/"en"/"rob"/"en+rob"/any registered composite);
  /// there is no batch-specific filter configuration.
  BatchScheduler(const cluster::Cluster& cluster,
                 const workload::TaskTypeTable& types,
                 std::unique_ptr<BatchHeuristic> heuristic,
                 std::vector<std::unique_ptr<core::Filter>> filters,
                 double energy_budget, std::size_t window_size);

  /// One mapping event: `pending` is the global unmapped queue (indexable by
  /// BatchAssignment::pending_index), `core_idle[flat]` says which cores can
  /// accept work, `in_flight` counts running tasks (pending + in_flight
  /// drive the average queue depth behind the energy filter's zeta_mul).
  /// Charges the estimator for every returned assignment.
  ///
  /// When the chain holds a RobustnessFilter with threshold > 0, a pending
  /// task whose `deadline - now` lies below the smallest support value of
  /// its type's exec pmfs is skipped before its candidates are built: every
  /// candidate's rho is exactly 0, so the chain would reject them all.
  /// Skipped tasks are not counted in candidates_generated or any pruned_*
  /// counter. Under deep validation the chain is run on them anyway and a
  /// survivor is reported as `batch-expired-skip`.
  [[nodiscard]] std::vector<BatchAssignment> MapEvent(
      const std::vector<workload::Task>& pending,
      const std::vector<bool>& core_idle, double now, std::size_t in_flight);

  /// Attaches per-trial counters and/or a decision-trace sink (the same
  /// attachment the immediate-mode scheduler takes). Call before the first
  /// MapEvent; both attachments must outlive the scheduler's use.
  void SetObservability(
      const core::SchedulerObservability& observability) noexcept {
    obs_ = observability;
  }

  [[nodiscard]] const core::EnergyEstimator& estimator() const noexcept {
    return estimator_;
  }
  [[nodiscard]] const BatchHeuristic& heuristic() const noexcept {
    return *heuristic_;
  }
  /// Tasks started so far (assignments committed).
  [[nodiscard]] std::size_t tasks_started() const noexcept {
    return tasks_started_;
  }

 private:
  /// True when a robustness filter with a positive threshold is certain to
  /// reject every candidate of `task` at `now`.
  [[nodiscard]] bool Expired(const workload::Task& task, double now) const;
  /// One candidate per idle core and P-state.
  [[nodiscard]] std::vector<core::Candidate> Candidates(
      const workload::Task& task, const std::vector<bool>& core_idle) const;
  /// Deep validation of one skip: runs the chain on the skipped task's
  /// candidates and reports `batch-expired-skip` if any survives.
  void AuditSkip(validate::TrialValidator& validator,
                 const workload::Task& task,
                 const std::vector<bool>& core_idle, double now, double depth,
                 std::size_t tasks_left);

  const cluster::Cluster* cluster_;
  const workload::TaskTypeTable* types_;
  std::unique_ptr<BatchHeuristic> heuristic_;
  std::vector<std::unique_ptr<core::Filter>> filters_;
  core::EnergyEstimator estimator_;
  std::size_t window_size_;
  std::size_t tasks_started_ = 0;
  core::SchedulerObservability obs_;
  /// Per task type, the smallest support value of its exec pmfs over every
  /// node and P-state; empty when the chain has no robustness threshold
  /// above 0, which disables the skip.
  std::vector<double> min_exec_support_;
};

}  // namespace ecdra::batch
