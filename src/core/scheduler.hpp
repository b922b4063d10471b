// The cluster resource manager's mapping pipeline (§V): on each task
// arrival, build the full candidate set, run the configured filters in order
// to restrict it to the feasible assignments, and let the heuristic pick
// one. Filters may leave nothing, in which case the task is discarded.
//
// The scheduler owns the heuristic, the filter chain, and the running
// energy-budget estimate (which is charged the EEC of every assignment
// made, whether or not an energy filter is active).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/energy_estimator.hpp"
#include "core/filter.hpp"
#include "core/gang_placement.hpp"
#include "core/heuristic.hpp"
#include "core/mapping_context.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "robustness/core_queue_model.hpp"
#include "workload/task.hpp"
#include "workload/task_type_table.hpp"

namespace ecdra::core {

/// Observability attachments for one trial's mapping pipeline. Both
/// pointers are optional and unowned; null disables the corresponding
/// instrumentation entirely (the decision path then costs one null-check).
struct SchedulerObservability {
  obs::Counters* counters = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Trial index stamped into every trace record.
  std::uint64_t trial = 0;
};

/// Runs `filters` over `ctx` in order until one empties the candidate set.
/// When non-null, `counters` tallies each filter's prunes (by its public
/// name: "en", "rob", or the shared slot of custom filters) and `stages`
/// gets one record per filter applied. Returns the name of the filter that
/// emptied the set, or "" when candidates survive. The immediate- and
/// batch-mode schedulers both run their chains through it, so they report
/// the same telemetry.
std::string_view ApplyFilters(std::span<const std::unique_ptr<Filter>> filters,
                              MappingContext& ctx, obs::Counters* counters,
                              std::vector<obs::FilterStageRecord>* stages);

/// Outcome of one all-or-nothing gang placement attempt (MapGang).
enum class GangStatus {
  /// `members` holds one chosen candidate per gang member; all start now.
  kPlaced,
  /// Fewer than `width` distinct feasible cores right now; the gang waits.
  /// `feasible_cores` lists the cores that were feasible so the engine can
  /// reserve them against narrower backfill work.
  kWait,
  /// Enough cores, but the joint robustness or energy check failed — and
  /// both are monotone (rho falls as `now` advances, the budget only
  /// drains), so waiting cannot help. The job fails.
  kInfeasible,
};

struct GangOutcome {
  GangStatus status = GangStatus::kWait;
  /// One candidate per member, index-aligned with the `members` span passed
  /// to MapGang (kPlaced only).
  std::vector<Candidate> members;
  /// Distinct flat cores with at least one surviving per-core option.
  std::vector<std::size_t> feasible_cores;
};

class ImmediateModeScheduler {
 public:
  /// `window_size` is the number of tasks in the workload window (the paper
  /// tests over 1000); it feeds T_left in the energy filter's fair share.
  ImmediateModeScheduler(const cluster::Cluster& cluster,
                         const workload::TaskTypeTable& types,
                         std::unique_ptr<Heuristic> heuristic,
                         std::vector<std::unique_ptr<Filter>> filters,
                         double energy_budget, std::size_t window_size);

  /// Immediate-mode mapping of one arriving task. Returns the chosen
  /// candidate, or nullopt if the filters eliminated every assignment (the
  /// task is discarded). Must be called exactly once per task, in arrival
  /// order. `availability` (fault extension) restricts the candidate set;
  /// empty means every core is fully available.
  [[nodiscard]] std::optional<Candidate> MapTask(
      const workload::Task& task, double now,
      std::span<const robustness::CoreQueueModel> cores,
      std::span<const CoreAvailability> availability = {});

  /// Fault-recovery re-mapping of a task stranded by a core failure
  /// (RecoveryPolicy::kRequeueToScheduler). Runs the identical filter +
  /// heuristic pipeline — and charges the estimator for the new
  /// assignment's EEC — but does not advance the arrival window: the task
  /// was already counted by its original MapTask, so tasks_seen() and
  /// tasks_discarded() are untouched and T_left matches the next arrival's.
  /// Trace records carry "remap":true.
  [[nodiscard]] std::optional<Candidate> RemapTask(
      const workload::Task& task, double now,
      std::span<const robustness::CoreQueueModel> cores,
      std::span<const CoreAvailability> availability);

  /// Streaming admission (src/stream): records that an arrival was consumed
  /// without a mapping attempt (deferred to the holding pen or dropped at
  /// admission). Advances the arrival window so the energy filter's T_left
  /// fair share stays honest for later arrivals; a pen release then re-enters
  /// through RemapTask, which does not advance the window again.
  void SkipTask() noexcept { ++tasks_seen_; }

  /// Job extension (src/workload/job.hpp): installs the gang-placement
  /// policy by registry name and scans the filter chain so MapGang applies
  /// the matching *joint* feasibility checks — the robustness filter's
  /// threshold over the gang completion pmf, and the energy filter's budget
  /// over the summed member EECs. Call once, before the first MapGang.
  void ConfigureGangs(const std::string& placement);
  [[nodiscard]] const GangPlacement* gang_placement() const noexcept {
    return gang_placement_.get();
  }

  /// All-or-nothing mapping of one rigid stage: `members` are the gang's
  /// tasks (one type, shared deadline; >= 2 of them), `availability` must
  /// mark every busy, reserved, or failed core unavailable so candidates
  /// only land on cores that can start simultaneously *now*. `chain_tail`
  /// is the remaining-chain completion pmf (successor stages; null for the
  /// final stage), folded into the joint robustness check. Advances the
  /// arrival window by the gang width on kPlaced unless `remap` (a
  /// fault-requeued gang was already counted). Requires ConfigureGangs.
  [[nodiscard]] GangOutcome MapGang(
      std::span<const workload::Task> members, double now,
      std::span<const robustness::CoreQueueModel> cores,
      std::span<const CoreAvailability> availability,
      const pmf::Pmf* chain_tail, bool remap);

  /// Job extension: consumes `count` arrival-window slots for gang members
  /// that will never be mapped (an abandoned pending gang, or the unreleased
  /// stages of a failed job), tallying them as discards so the trial's
  /// missed-deadline arithmetic stays task-exact.
  void DiscardTasks(std::size_t count) noexcept {
    tasks_seen_ += count;
    tasks_discarded_ += count;
    if (obs_.counters != nullptr) obs_.counters->tasks_discarded += count;
  }

  /// Attaches per-trial counters and/or a decision-trace sink. Call before
  /// the first MapTask; both attachments must outlive the scheduler's use.
  void SetObservability(const SchedulerObservability& observability) noexcept {
    obs_ = observability;
  }

  /// Governor extension (src/governor): scales the energy filter's per-task
  /// fair share for every subsequent mapping decision. The default 1 is the
  /// paper's static filter, applied as an exact multiplicative identity.
  void SetFairShareScale(double scale) noexcept { fair_share_scale_ = scale; }
  [[nodiscard]] double fair_share_scale() const noexcept {
    return fair_share_scale_;
  }

  /// Econ extension (src/econ): attaches the run's EconModel so value-aware
  /// heuristics and the SLA filter can read per-task value, tier, and the
  /// energy price through the MappingContext. Null (the default) keeps
  /// every mapping decision on the pre-econ path. `model` must outlive the
  /// scheduler's use.
  void SetEconModel(const econ::EconModel* model) noexcept { econ_ = model; }

  [[nodiscard]] const EnergyEstimator& estimator() const noexcept {
    return estimator_;
  }
  [[nodiscard]] std::size_t tasks_seen() const noexcept { return tasks_seen_; }
  [[nodiscard]] std::size_t tasks_discarded() const noexcept {
    return tasks_discarded_;
  }

  /// "LL (en+rob)"-style label for reports.
  [[nodiscard]] std::string VariantName() const;

 private:
  /// Shared MapTask/RemapTask pipeline: candidate generation, filter chain,
  /// heuristic selection, EEC charge, and observability. Window accounting
  /// stays in the public entry points.
  [[nodiscard]] std::optional<Candidate> RunPipeline(
      const workload::Task& task, double now,
      std::span<const robustness::CoreQueueModel> cores,
      std::span<const CoreAvailability> availability, std::size_t tasks_left,
      bool remap);

  const cluster::Cluster* cluster_;
  const workload::TaskTypeTable* types_;
  std::unique_ptr<Heuristic> heuristic_;
  std::vector<std::unique_ptr<Filter>> filters_;
  EnergyEstimator estimator_;
  std::size_t window_size_;
  std::size_t tasks_seen_ = 0;
  std::size_t tasks_discarded_ = 0;
  SchedulerObservability obs_;
  double fair_share_scale_ = 1.0;
  const econ::EconModel* econ_ = nullptr;
  // -- Job extension (null / inert until ConfigureGangs) --
  std::unique_ptr<GangPlacement> gang_placement_;
  /// Robustness filter's threshold for the joint gang check; 0 (no "rob"
  /// filter in the chain) disables it.
  double gang_threshold_ = 0.0;
  /// Whether an "en" filter is in the chain — gates the joint energy check.
  bool gang_energy_check_ = false;
};

}  // namespace ecdra::core
