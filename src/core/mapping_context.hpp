// Everything a heuristic or filter may consult while mapping one task at one
// time-step: the candidate set, per-core queue state, scalar expectations,
// and lazily-computed stochastic quantities (expected completion time and
// the on-time probability rho).
//
// rho is memoized per candidate (core, P-state), so every filter and
// heuristic after the first reads the value the first one computed. It is
// evaluated through each CoreQueueModel's ready pmf, which the model keeps
// across arrivals while its running task's truncation cut holds: a mapping
// step convolves only for cores whose cut moved or whose queue changed since
// they were last queried, regardless of how many candidates touch rho.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/assignment.hpp"
#include "econ/econ_model.hpp"
#include "robustness/core_queue_model.hpp"
#include "workload/task.hpp"
#include "workload/task_type_table.hpp"

namespace ecdra::core {

/// Availability restriction of one core at mapping time (fault extension):
/// an unavailable (failed) core contributes no candidates, and a throttled
/// core only the P-states it may actually run (index >= pstate_floor). An
/// empty availability span means every core is fully available — the
/// paper's fault-free assumption, and the default.
struct CoreAvailability {
  bool available = true;
  cluster::PStateIndex pstate_floor = 0;
};

class MappingContext {
 public:
  /// Builds the full candidate list (every available core x every allowed
  /// P-state) for `task` arriving at `now`. `cores` is indexed by flat core
  /// index and must outlive the context; `availability`, when non-empty,
  /// must be indexed the same way.
  MappingContext(const cluster::Cluster& cluster,
                 const workload::TaskTypeTable& types,
                 std::span<const robustness::CoreQueueModel> cores,
                 const workload::Task& task, double now,
                 std::span<const CoreAvailability> availability = {});

  /// Batch-shaped context (BatchScheduler): the candidate set is supplied
  /// explicitly (idle cores only) and there are no queue models — every
  /// candidate core is idle, so the stochastic quantities collapse to their
  /// closed forms (ECT = now + EET, rho = F_exec(deadline - now)) — and the
  /// average queue depth is supplied by the scheduler, which counts pending
  /// plus running tasks that no queue model tracks. Filters built for the
  /// immediate stack run unchanged through this shape.
  MappingContext(const cluster::Cluster& cluster, const workload::Task& task,
                 double now, std::vector<Candidate> candidates,
                 double average_queue_depth);

  [[nodiscard]] const workload::Task& task() const noexcept { return *task_; }
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] const cluster::Cluster& cluster() const noexcept {
    return *cluster_;
  }

  /// The mutable candidate set filters prune and heuristics choose from.
  [[nodiscard]] std::vector<Candidate>& candidates() noexcept {
    return candidates_;
  }
  [[nodiscard]] const std::vector<Candidate>& candidates() const noexcept {
    return candidates_;
  }

  /// |MQ(i,j,k,t_l)|: tasks currently assigned to the candidate's core.
  [[nodiscard]] std::size_t QueueLength(const Candidate& candidate) const {
    return cores_[candidate.assignment.flat_core].queue_length();
  }

  /// ECT(i,j,k,pi,t_l,z): expected completion time — expected core ready
  /// time plus the candidate's expected execution time (expectation is
  /// additive, no convolution needed).
  [[nodiscard]] double ExpectedCompletionTime(const Candidate& candidate) const;

  /// rho(i,j,k,pi,t_l,z): probability the task completes by its deadline
  /// under this candidate assignment.
  [[nodiscard]] double OnTimeProbability(const Candidate& candidate) const;

  /// Joint on-time probability of a rigid gang (src/workload/job.hpp)
  /// started simultaneously at now() on idle cores: the stage finishes at
  /// the max of the sibling exec times (MaxInto fold), successor stages add
  /// by convolution (`chain_tail`, null for the final stage), and the job is
  /// on time if that sum lands by the shared deadline. Evaluates the whole
  /// candidate core *set* jointly — per-member rho products would wrongly
  /// assume the members miss independently of which sibling is slowest.
  [[nodiscard]] double GangOnTimeProbability(
      std::span<const pmf::Pmf* const> member_execs,
      const pmf::Pmf* chain_tail) const;

  /// Average queue depth of the system at this time-step: tasks queued or
  /// executing anywhere, divided by the number of cores (drives the energy
  /// filter's zeta_mul).
  [[nodiscard]] double AverageQueueDepth() const;

  /// Scheduler-provided budget view for the energy filter: zeta(t_l), the
  /// estimated remaining energy, and T_left(t_l), the tasks remaining in the
  /// window including the one being mapped (>= 1; DESIGN.md decision 6).
  void SetBudgetView(double remaining_energy_estimate,
                     std::size_t tasks_left) {
    remaining_energy_estimate_ = remaining_energy_estimate;
    tasks_left_ = tasks_left;
  }
  [[nodiscard]] double RemainingEnergyEstimate() const noexcept {
    return remaining_energy_estimate_;
  }
  [[nodiscard]] std::size_t TasksLeft() const noexcept { return tasks_left_; }

  /// Governor extension (src/governor): multiplicative adjustment of the
  /// energy filter's per-task fair share. 1 (the default) is the paper's
  /// static filter — multiplying by exactly 1.0 is an IEEE identity, so the
  /// baseline path stays bit-identical.
  void SetFairShareScale(double scale) noexcept { fair_share_scale_ = scale; }
  [[nodiscard]] double FairShareScale() const noexcept {
    return fair_share_scale_;
  }

  /// Econ extension (src/econ): read-only view of the run's EconModel for
  /// value-aware heuristics and the SLA filter. Null (the default) outside
  /// econ mode — econ-aware policies must degrade gracefully on null.
  void SetEconView(const econ::EconModel* model) noexcept { econ_ = model; }
  [[nodiscard]] const econ::EconModel* econ() const noexcept { return econ_; }

  /// The task's SLA-tier multiplier on the energy filter's fair share: gold
  /// traffic may claim a larger slice of the remaining budget. Exactly 1.0
  /// outside econ mode (and for neutral tiers), so multiplying by it is an
  /// IEEE identity and the baseline filter is bit-identical.
  [[nodiscard]] double TierShareMultiplier() const noexcept {
    return econ_ == nullptr ? 1.0
                            : econ_->TierOf(task_->tier).share_multiplier;
  }

 private:
  const cluster::Cluster* cluster_;
  const workload::Task* task_;
  double now_;
  std::span<const robustness::CoreQueueModel> cores_;
  std::vector<Candidate> candidates_;
  /// NaN in the immediate shape (depth comes from the queue models); the
  /// scheduler-supplied depth in the batch shape.
  double queue_depth_override_ = std::numeric_limits<double>::quiet_NaN();
  double remaining_energy_estimate_ = 0.0;
  std::size_t tasks_left_ = 1;
  double fair_share_scale_ = 1.0;
  const econ::EconModel* econ_ = nullptr;
  /// Memoized ExpectedReadyTime per core (NaN = not yet computed).
  mutable std::vector<double> expected_ready_;
  /// Memoized rho, indexed flat_core * kNumPStates + pstate; exec is null
  /// until computed. Allocated on the first rho query, so scalar-only
  /// heuristics pay nothing.
  struct RhoEntry {
    const pmf::Pmf* exec = nullptr;
    double rho = 0.0;
  };
  mutable std::vector<RhoEntry> rho_;
};

}  // namespace ecdra::core
