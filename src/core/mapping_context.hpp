// Everything a heuristic or filter may consult while mapping one task at one
// time-step: the candidate set, per-core queue state, scalar expectations,
// and lazily-computed stochastic quantities (expected completion time and
// the on-time probability rho).
//
// rho is memoized per candidate (core, P-state), so every filter and
// heuristic after the first reads the value the first one computed. An idle
// core's ready pmf is Delta(now) on every idle core, so idle cores share one
// memo slot per (node, P-state): their candidates on one node ask the same
// ProbSumLeq question. rho is evaluated through each CoreQueueModel's ready
// pmf, which the model keeps across arrivals while its running task's
// truncation cut holds: a mapping step convolves only for cores whose cut
// moved or whose queue changed since they were last queried, regardless of
// how many candidates touch rho. Filters ask only whether rho falls below a
// threshold (RhoBelow), which the completion time's mean and variance bound
// usually answer without any ready pmf at all.
//
// The candidates and memos live in a Buffers object. The immediate-mode
// scheduler keeps one and lends it to every context it builds, which clears
// it and keeps its capacity, so a warm decision allocates nothing. The batch
// shape's rho is one exec pmf's CDF, so its threshold answers come from a
// per-trial RhoQuantiles table the batch scheduler lends the same way.
#pragma once

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/assignment.hpp"
#include "econ/econ_model.hpp"
#include "robustness/core_queue_model.hpp"
#include "util/assert.hpp"
#include "validate/validation.hpp"
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

/// Appends a task's candidates on core `flat` of node `node_index`, one per
/// P-state from `first_pstate` on. Exec pmf and EET are read in place from
/// the task type's table rows; EEC = EET * mu(i, pi) / epsilon(i) (§V-A).
/// Both MappingContext shapes build their candidates here.
inline void AppendCoreCandidates(std::vector<Candidate>& out,
                                 const cluster::Cluster& cluster,
                                 const workload::TaskTypeTable& types,
                                 std::size_t type, std::size_t flat,
                                 std::size_t node_index,
                                 cluster::PStateIndex first_pstate = 0) {
  const cluster::Node& node = cluster.node(node_index);
  const pmf::Pmf* const exec = types.ExecRow(type, node_index);
  const double* const eet = types.MeanRow(type, node_index);
  for (cluster::PStateIndex s = first_pstate; s < cluster::kNumPStates; ++s) {
    out.push_back(Candidate{
        .assignment = Assignment{flat, s},
        .node = node_index,
        .exec = exec + s,
        .eet = eet[s],
        .eec = eet[s] * node.pstates[s].power_watts / node.power_efficiency,
    });
  }
}

class MappingContext {
 public:
  /// A decision's candidate list and memos. Contents are meaningful only to
  /// the context that last used it.
  struct Buffers {
    /// A memoized rho; exec is null until computed.
    struct Rho {
      const pmf::Pmf* exec = nullptr;
      double rho = 0.0;
    };
    std::vector<Candidate> candidates;
    /// Per-core ready-time moments: the mean (ExpectedReadyTime) and the
    /// variance bound (ReadyMoments), each NaN until first needed.
    std::vector<robustness::Moments> ready;
    /// rho per (busy core, P-state) at flat_core * kNumPStates + pstate,
    /// then per (node, P-state) of idle cores at (total_cores + node) *
    /// kNumPStates + pstate. Sized on the first rho query, so scalar-only
    /// heuristics pay nothing.
    std::vector<Rho> rho;
  };

  /// The batch shape's answers to "rho < theta?". Every batch candidate
  /// core is idle, so rho = exec.CdfAt(deadline - now), which is below
  /// theta exactly when deadline - now < exec.CdfQuantile(theta). The table
  /// keeps that quantile for one theta, one slot per exec pmf of a
  /// TaskTypeTable ((type, node, P-state)), each computed when first
  /// asked. The first threshold a context asks claims the table; RhoBelow
  /// answers any other threshold with CdfAt. BatchScheduler keeps one per
  /// trial and lends it to every context it builds.
  class RhoQuantiles {
   public:
    /// One empty slot per exec pmf of `types`, which must outlive the
    /// table.
    explicit RhoQuantiles(const workload::TaskTypeTable& types)
        : base_(types.ExecRow(0, 0)),
          slots_(types.num_types() * types.num_nodes() * cluster::kNumPStates,
                 std::numeric_limits<double>::quiet_NaN()) {}

    /// True when the table answers `threshold`: the first call claims it
    /// for that threshold.
    [[nodiscard]] bool Serves(double threshold) noexcept {
      if (!claimed_) {
        claimed_ = true;
        threshold_ = threshold;
      }
      return threshold == threshold_;
    }

    /// The slot of `exec`, which must be one of the table's pmfs: its
    /// CdfQuantile at the served threshold, or NaN until computed.
    [[nodiscard]] double& At(const pmf::Pmf& exec) {
      const auto slot = static_cast<std::size_t>(&exec - base_);
      ECDRA_ASSERT(slot < slots_.size(), "exec pmf is not in the table");
      return slots_[slot];
    }

   private:
    const pmf::Pmf* base_;
    std::vector<double> slots_;
    bool claimed_ = false;
    double threshold_ = 0.0;
  };

  /// Builds the full candidate list (every available core x every allowed
  /// P-state) for `task` arriving at `now`. `cores` is indexed by flat core
  /// index and must outlive the context; `availability`, when non-empty,
  /// must be indexed the same way. `lent`, when given, holds the
  /// candidates and memos (cleared here) and must outlive the context;
  /// otherwise the context uses its own.
  MappingContext(const cluster::Cluster& cluster,
                 const workload::TaskTypeTable& types,
                 std::span<const robustness::CoreQueueModel> cores,
                 const workload::Task& task, double now,
                 std::span<const CoreAvailability> availability = {},
                 Buffers* lent = nullptr);

  /// Batch-shaped context (BatchScheduler): the candidate set is supplied
  /// explicitly (idle cores only) and there are no queue models — every
  /// candidate core is idle, so the stochastic quantities collapse to their
  /// closed forms (ECT = now + EET, rho = F_exec(deadline - now)) — and the
  /// average queue depth is supplied by the scheduler, which counts pending
  /// plus running tasks that no queue model tracks. Filters built for the
  /// immediate stack run unchanged through this shape. `quantiles`, when
  /// given, answers RhoBelow for the threshold it serves and must outlive
  /// the context; every candidate's exec pmf must then be one of its
  /// table's.
  MappingContext(const cluster::Cluster& cluster, const workload::Task& task,
                 double now, std::vector<Candidate> candidates,
                 double average_queue_depth,
                 RhoQuantiles* quantiles = nullptr);

  [[nodiscard]] const workload::Task& task() const noexcept { return *task_; }
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] const cluster::Cluster& cluster() const noexcept {
    return *cluster_;
  }

  /// The mutable candidate set filters prune and heuristics choose from.
  [[nodiscard]] std::vector<Candidate>& candidates() noexcept {
    return buffers().candidates;
  }
  [[nodiscard]] const std::vector<Candidate>& candidates() const noexcept {
    return buffers().candidates;
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

  /// OnTimeProbability(candidate) < threshold: the question the rob and sla
  /// filters ask. The immediate shape answers from the completion time's
  /// mean and variance bound (the core's ReadyMoments plus the candidate's
  /// exec moments, robustness::RhoBelowBound) and computes rho only when
  /// that cannot decide, so a core whose every candidate is decided builds
  /// no ready pmf. Decided answers equal the exact comparison; deep
  /// validation re-checks each one (check "rho-bound"). The batch shape
  /// compares deadline - now with the exec pmf's quantile in the lent
  /// RhoQuantiles table when the table serves `threshold` (deep validation
  /// re-checks each answer against CdfAt, check "rho-quantile"), and
  /// compares its closed form, one CdfAt, otherwise.
  [[nodiscard]] bool RhoBelow(const Candidate& candidate,
                              double threshold) const {
    if (!cores_.empty()) return QueuedRhoBelow(candidate, threshold);
    if (quantiles_ == nullptr || !quantiles_->Serves(threshold)) {
      return OnTimeProbability(candidate) < threshold;
    }
    double& quantile = quantiles_->At(*candidate.exec);
    if (std::isnan(quantile)) {
      quantile = candidate.exec->CdfQuantile(threshold);
    }
    const bool below = task_->deadline - now_ < quantile;
    if (validate::TrialValidator* validator = validate::DeepValidator())
        [[unlikely]] {
      AuditRhoQuantile(*validator, candidate, threshold, below);
    }
    return below;
  }

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
  /// value-aware heuristics and the SLA filter. Never null: the default is
  /// econ::TrivialModel(), whose zero value and price and neutral tier make
  /// every econ-aware rule vacuous. `model` must outlive the context.
  void SetEconView(const econ::EconModel* model) noexcept { econ_ = model; }
  [[nodiscard]] const econ::EconModel& econ() const noexcept { return *econ_; }

  /// The task's SLA-tier multiplier on the energy filter's fair share: gold
  /// traffic may claim a larger slice of the remaining budget. Exactly 1.0
  /// for neutral tiers (every task under a trivial model), so multiplying by
  /// it is an IEEE identity and the baseline filter is bit-identical.
  [[nodiscard]] double TierShareMultiplier() const {
    return econ_->TierOf(task_->tier).share_multiplier;
  }

 private:
  const cluster::Cluster* cluster_;
  /// The exec-pmf table of the immediate shape (its variances feed
  /// RhoBelow); null in the batch shape.
  const workload::TaskTypeTable* types_ = nullptr;
  const workload::Task* task_;
  double now_;
  std::span<const robustness::CoreQueueModel> cores_;
  /// Candidates and memos: *lent_ when the caller lent buffers, else own_.
  /// Mutable because the memos fill in from const queries.
  Buffers* lent_ = nullptr;
  mutable Buffers own_;
  [[nodiscard]] Buffers& buffers() const noexcept {
    return lent_ != nullptr ? *lent_ : own_;
  }
  /// NaN in the immediate shape (depth comes from the queue models); the
  /// scheduler-supplied depth in the batch shape.
  double queue_depth_override_ = std::numeric_limits<double>::quiet_NaN();
  /// The batch shape's lent quantile table; null in the immediate shape and
  /// when none was lent.
  RhoQuantiles* quantiles_ = nullptr;
  double remaining_energy_estimate_ = 0.0;
  std::size_t tasks_left_ = 1;
  double fair_share_scale_ = 1.0;
  const econ::EconModel* econ_ = &econ::TrivialModel();

  /// RhoBelow in the immediate shape.
  [[nodiscard]] bool QueuedRhoBelow(const Candidate& candidate,
                                    double threshold) const;

  /// Deep validation of one table answer: `below` must equal
  /// CdfAt(deadline - now) < threshold.
  void AuditRhoQuantile(validate::TrialValidator& validator,
                        const Candidate& candidate, double threshold,
                        bool below) const;

  /// Index of `candidate`'s slot in Buffers::rho (immediate shape).
  [[nodiscard]] std::size_t RhoSlot(const Candidate& candidate) const {
    const std::size_t row = cores_[candidate.assignment.flat_core].idle()
                                ? cores_.size() + candidate.node
                                : candidate.assignment.flat_core;
    return row * cluster::kNumPStates + candidate.assignment.pstate;
  }
};

}  // namespace ecdra::core
