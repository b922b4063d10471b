// Per-trial outcome records.
//
// The headline metric of every figure in the paper is the number of missed
// deadlines out of the 1000-task window, where "missed" covers tasks that
// finished late, tasks the filters discarded, and tasks that finished on
// time but only after the system energy budget was exhausted (DESIGN.md
// decision 3).
//
// The result table in metrics.cpp (ResultBlocks()) is the single
// declaration of every TrialResult scalar: its member, JSON key, kind,
// omission rule, block and the SummaryStatistics mean it feeds. The
// checkpoint record layout, both printers and SummarizeTrials walk it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "cluster/pstate.hpp"
#include "obs/counters.hpp"
#include "validate/validation.hpp"

namespace ecdra::sim {

/// Full per-task trace entry (collected when TrialOptions.collect_task_records
/// is set; used by the robustness-validation experiment).
struct TaskRecord {
  std::size_t task_id = 0;
  std::size_t type = 0;
  double arrival = 0.0;
  double deadline = 0.0;
  // (No priority copy here: priority is a per-job property of the workload
  // Task; consumers join through the trial's task list instead of a
  // duplicated field that can drift.)
  bool assigned = false;
  std::size_t flat_core = 0;
  cluster::PStateIndex pstate = 0;
  /// rho(i,j,k,pi,t_l,z) of the chosen assignment, at assignment time.
  double rho_at_assignment = 0.0;
  double start_time = 0.0;
  double finish_time = 0.0;
  bool on_time = false;          // finished by its deadline
  bool within_energy = false;    // finished before budget exhaustion
  /// Dropped from its queue (CancelPolicy::kCancelHopelessQueued only).
  bool cancelled = false;
  /// Stranded by a permanent core failure and never finished (fault
  /// extension; counts toward missed_deadlines).
  bool lost_to_failure = false;
  /// Re-mapped to another core after its original core failed
  /// (RecoveryPolicy::kRequeueToScheduler).
  bool remapped = false;
  /// Queued (not yet started) on a failed core and migrated in
  /// waiting-time-per-joule order (RecoveryPolicy::kMigrateQueued).
  bool migrated = false;

  friend bool operator==(const TaskRecord&, const TaskRecord&) = default;
};

/// One sample of the system robustness rho(t_l) (Eq. 4) taken at a task
/// arrival: the expected number of on-time completions among the tasks then
/// queued or executing.
struct RobustnessSample {
  double time = 0.0;
  double rho = 0.0;
  std::size_t in_flight = 0;
};

/// Streaming-mode scalars of one trial (src/stream; all zero/false in
/// fixed-trace runs). Per-window detail flows through the trace sink as
/// "window" records; these are the trial-level aggregates that checkpoint
/// and summarize.
struct StreamStats {
  bool enabled = false;
  /// Rolling windows closed (including the final partial window).
  std::size_t windows = 0;
  /// Arrivals deferred to the holding pen by the admission stage.
  std::size_t deferred = 0;
  /// Tasks the admission stage refused outright or expired in the pen
  /// (counts toward missed_deadlines, like filter discards).
  std::size_t admission_dropped = 0;
  /// Pen tasks released to the scheduler.
  std::size_t released = 0;
  /// Releases forced by the fairness guard or the end-of-trace drain.
  std::size_t forced_admissions = 0;
  /// Deepest the pen ever got.
  std::size_t pen_peak = 0;
  /// Emergency-mode episodes and total seconds spent pinned.
  std::size_t emergency_entries = 0;
  double emergency_seconds = 0.0;
  /// Degraded-mode episodes (capacity lost to faults crossed the enter
  /// fraction) and total seconds spent degraded.
  std::size_t degraded_entries = 0;
  double degraded_seconds = 0.0;
  /// Account balance: the deficit's depth and the end-of-trial balance.
  double min_available = 0.0;
  double final_available = 0.0;

  friend bool operator==(const StreamStats&, const StreamStats&) = default;
};

/// Job-level scalars of one trial (src/workload/job.hpp). `enabled` is set
/// only when some task is not its own one-task job, so independent-task
/// trials — including job-mode runs with {1@1}x{1@1} shapes — keep their
/// result JSON byte-identical to the pre-jobs format.
struct JobStats {
  bool enabled = false;
  /// Jobs in the trial (== arrival events).
  std::size_t jobs = 0;
  /// Jobs whose every task completed, with the last finisher on time and
  /// within budget — the per-job analogue of the paper's success count.
  std::size_t jobs_on_time = 0;
  /// Jobs that completed every task but whose last finisher missed the
  /// deadline or landed past budget exhaustion.
  std::size_t jobs_late = 0;
  /// Jobs that lost at least one task (discard, admission drop, cancel,
  /// fault loss, or gang abandonment) and can never complete.
  std::size_t jobs_failed = 0;
  /// Width >= 2 gangs started (all-or-nothing simultaneous placement).
  std::size_t gangs_placed = 0;
  /// Gang placement attempts that found no width-sized feasible core set
  /// and went back to the pending queue to wait.
  std::size_t gang_waits = 0;
  /// Gangs whose members were pulled back by a fault and re-entered the
  /// pending queue (requeue/migrate recovery).
  std::size_t gangs_requeued = 0;
  /// Pending gangs abandoned — deadline passed while waiting, joint
  /// feasibility unreachable, or end-of-trial drain found no placement.
  std::size_t gangs_abandoned = 0;
  /// Deepest the pending-gang queue ever got.
  std::size_t pending_peak = 0;
  /// Total seconds gangs spent waiting between release and start.
  double gang_wait_seconds = 0.0;

  friend bool operator==(const JobStats&, const JobStats&) = default;
};

/// Economic scalars of one trial (src/econ). `enabled` is set only when the
/// trial ran with a non-trivial EconModel, so econ-off trials — and trials
/// with the degenerate all-zeros model — keep their result JSON
/// byte-identical to the pre-econ format.
struct EconStats {
  bool enabled = false;
  /// Revenue realized by finishes (tier-multiplied, decay applied).
  double revenue = 0.0;
  /// energy_price x total_energy for the whole trial (idle draw included).
  double energy_cost = 0.0;
  /// revenue - energy_cost.
  double net_profit = 0.0;
  /// Total value the trial's window offered (what a clairvoyant scheduler
  /// with free energy could have earned; revenue / value_offered is the
  /// capture rate).
  double value_offered = 0.0;
  /// Finishes that earned any revenue.
  std::size_t paid_finishes = 0;
  /// Paid finishes that landed past the deadline inside the decay window.
  std::size_t decayed_finishes = 0;
  /// Tasks in a non-neutral (premium) SLA tier, and how many of those
  /// finished on time within budget.
  std::size_t premium_total = 0;
  std::size_t premium_on_time = 0;

  friend bool operator==(const EconStats&, const EconStats&) = default;
};

struct TrialResult {
  std::size_t window_size = 0;
  /// Tasks that completed by their deadline before the energy budget ran out
  /// — the paper's success count.
  std::size_t completed = 0;
  /// window_size - completed: the box-plot quantity in Figures 2-6.
  std::size_t missed_deadlines = 0;
  /// Subsets of the misses:
  std::size_t discarded = 0;         // filters left no feasible assignment
  std::size_t finished_late = 0;     // executed but past the deadline
  std::size_t on_time_but_over_budget = 0;
  /// Queued tasks dropped as hopeless (kCancelHopelessQueued only).
  std::size_t cancelled = 0;

  // -- Fault extension (all zero when faults are disabled) --
  /// Permanent core failures applied during the trial.
  std::size_t failures_injected = 0;
  /// Failed cores returned to service.
  std::size_t repairs_applied = 0;
  /// Transient throttle intervals begun.
  std::size_t throttles_injected = 0;
  /// Tasks stranded on a failed core that were never completed (dropped, or
  /// re-mapping found no feasible assignment). Counts toward
  /// missed_deadlines.
  std::size_t tasks_lost_to_failures = 0;
  /// Stranded tasks the recovery policy successfully re-assigned.
  std::size_t tasks_remapped = 0;
  /// Re-mapped tasks that still finished by their deadline (and within
  /// budget) — the recovery policy's save count.
  std::size_t remapped_on_time = 0;
  /// Whole-domain outages applied (correlated fault domains) and domains
  /// returned to service.
  std::size_t domain_outages = 0;
  std::size_t domain_repairs = 0;
  /// Queued stranded tasks re-planned in waiting-time-per-joule order by
  /// RecoveryPolicy::kMigrateQueued (subset of tasks_remapped).
  std::size_t tasks_migrated = 0;
  /// Migrated tasks that still finished by their deadline (and within
  /// budget).
  std::size_t migrated_on_time = 0;

  /// Priority-weighted analogues (equal to the unweighted counts when every
  /// task has priority 1, the paper's setting).
  double weighted_total = 0.0;
  double weighted_completed = 0.0;
  double weighted_missed = 0.0;

  /// Ground-truth energy drawn from the wall over the whole trial (Eq. 2
  /// semantics, includes idle draw).
  double total_energy = 0.0;
  /// When the cumulative energy crossed the budget, if it did.
  std::optional<double> energy_exhausted_at;
  /// Scheduler's final zeta(t) estimate (can be negative).
  double estimated_energy_remaining = 0.0;
  /// Time the last task finished.
  double makespan = 0.0;

  /// Streaming-mode aggregates (enabled == false in fixed-trace runs).
  StreamStats stream;

  /// Job-level aggregates (enabled == false for independent-task trials).
  JobStats jobs;

  /// Profit accounting (enabled == false outside econ mode).
  EconStats econ;

  std::vector<TaskRecord> task_records;  // empty unless requested
  std::vector<RobustnessSample> robustness_trace;  // empty unless requested
  /// Scheduler/engine/pmf observability counters (all-zero unless
  /// TrialOptions.collect_counters was set).
  obs::Counters counters;
  /// Invariant-validation outcome (mode kOff with zero checks unless
  /// TrialOptions.validation was enabled). In record-and-continue sweeps a
  /// violating trial still lands here, flagged; fail-fast trials throw
  /// validate::ValidationError instead.
  validate::ValidationReport validation;
};

std::ostream& operator<<(std::ostream& os, const TrialResult& result);

/// Cross-trial aggregation of one configuration's results: headline means
/// plus the summed observability counters — the hook the CLI uses to dump
/// telemetry next to the paper metrics.
struct SummaryStatistics {
  std::size_t trials = 0;
  double mean_missed = 0.0;
  double mean_completed = 0.0;
  double mean_discarded = 0.0;
  double mean_cancelled = 0.0;
  double mean_energy = 0.0;
  double mean_makespan = 0.0;
  // -- Fault extension (all zero when faults are disabled) --
  double mean_failures = 0.0;
  double mean_tasks_lost = 0.0;
  double mean_remapped = 0.0;
  double mean_remapped_on_time = 0.0;
  double mean_domain_outages = 0.0;
  double mean_migrated = 0.0;
  double mean_migrated_on_time = 0.0;
  // -- Streaming extension (all zero in fixed-trace runs) --
  /// Trials that ran in streaming mode (0 or == trials in practice).
  std::size_t stream_trials = 0;
  double mean_stream_deferred = 0.0;
  double mean_stream_dropped = 0.0;
  double mean_stream_released = 0.0;
  double mean_emergency_seconds = 0.0;
  double mean_degraded_seconds = 0.0;
  // -- Job extension (all zero for independent-task trials) --
  /// Trials whose workload contained a non-degenerate job.
  std::size_t job_trials = 0;
  double mean_jobs_on_time = 0.0;
  double mean_jobs_failed = 0.0;
  double mean_gangs_placed = 0.0;
  double mean_gang_waits = 0.0;
  double mean_gang_wait_seconds = 0.0;
  // -- Econ extension (all zero outside econ mode) --
  /// Trials that carried a non-trivial EconModel.
  std::size_t econ_trials = 0;
  double mean_revenue = 0.0;
  double mean_energy_cost = 0.0;
  double mean_net_profit = 0.0;
  double mean_value_offered = 0.0;
  /// Counters summed over all trials (all-zero when collection was off).
  obs::Counters counters;
  /// Invariant-validation totals over all trials (zero when validation off).
  std::uint64_t validation_checks = 0;
  std::uint64_t validation_violations = 0;
  // -- Crash-safe sweep extension (all zero for plain RunTrials sweeps;
  // filled by SummarizeSweep from the SweepResult bookkeeping) --
  /// Trials that exhausted every attempt without producing a result.
  std::size_t failed_trials = 0;
  /// Failed trials whose last attempt hit the wall-clock watchdog.
  std::size_t timed_out_trials = 0;
  /// Trials that needed more than one attempt but eventually completed.
  std::size_t retried_trials = 0;
};

/// Aggregates trial results (at least one required): each mean_* member is
/// its result-table row summed in trial order, divided by the trial count.
[[nodiscard]] SummaryStatistics SummarizeTrials(
    std::span<const TrialResult> trials);

/// Prints the means under their rows' keys (an extension block's means only
/// when some trial ran it) and, when counter collection was on, the counter
/// block with derived rates (ReadyPmf hit rate, mean decision latency).
std::ostream& operator<<(std::ostream& os, const SummaryStatistics& summary);

/// One result scalar's value: a count, a number, or null (an unset
/// number-or-null row).
using ResultValue = std::variant<std::monostate, std::uint64_t, double>;

/// One row of the result table: the single declaration of a TrialResult
/// scalar.
struct ResultField {
  enum class Kind { kCount, kNumber, kNumberOrNull };
  /// Typed access to the row's member. The member's type (std::size_t,
  /// double, std::optional<double>) picks the kind, and get/set carry the
  /// matching ResultValue alternative.
  struct Codec {
    Kind kind;
    ResultValue (*get)(const TrialResult& result);
    void (*set)(TrialResult& result, const ResultValue& value);
  };

  /// JSON key, unique within the block. Both printers print it too.
  std::string_view key;
  Codec codec;
  /// The SummaryStatistics mean the row feeds (null: none).
  double SummaryStatistics::*mean = nullptr;
  /// Left out of the JSON when zero, and read as zero when absent.
  bool omit_when_zero = false;

  /// Whether the omission rule keeps the row in `result`'s JSON.
  [[nodiscard]] bool written(const TrialResult& result) const;
};

/// A block of result rows: the top level, or one extension's nested JSON
/// object, written only when the trial ran that extension.
struct ResultBlock {
  /// JSON key of the nested object; empty for the top level.
  std::string_view key;
  /// Reads the block's `enabled` flag (always true for the top level).
  bool (*enabled)(const TrialResult& result);
  /// Sets the flag; null for the top level, which is always written.
  void (*set_enabled)(TrialResult& result, bool enabled);
  /// The SummaryStatistics count of trials that ran the block (null for
  /// the top level).
  std::size_t SummaryStatistics::*trials;
  /// The block's rows, in emission order.
  std::span<const ResultField> fields;
};

/// The result table: every block, top level first, in emission order.
[[nodiscard]] std::span<const ResultBlock> ResultBlocks() noexcept;

}  // namespace ecdra::sim
