// Discrete-event simulation of one trial (§VI).
//
// Five event kinds drive the clock: task arrivals (the scheduler maps the
// task immediately), task completions (the core starts its next queued
// task or drops to the idle P-state), fault events (failures, repairs,
// throttles — the §VIII dynamic-availability extension, absent by default),
// governor ticks (the src/governor online energy-governance extension,
// scheduled only for governors with a periodic cadence), and window
// boundaries (the src/stream streaming service mode: close the rolling
// metrics window and re-scan the admission holding pen).
// Between events every core draws the power of its current P-state — cores
// are never off unless power-gated or failed — and the engine integrates
// cluster energy online, pinning the exact instant the budget zeta_max is
// exhausted.
//
// The engine keeps two synchronized views of every core: the ground-truth
// runtime state (current P-state, transition log, sampled actual execution
// times) and the resource manager's stochastic CoreQueueModel (execution
// time pmfs) that heuristics and filters consult.
//
// The same loop runs batch mode ([SmA10]/[MaA99], src/batch): built with a
// batch::BatchScheduler, the engine parks arrivals in a global unmapped pool
// and sweeps it against the idle cores after every arrival and every
// finish, so both regimes share one energy path and one result assembly.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/energy_accounting.hpp"
#include "core/scheduler.hpp"
#include "econ/econ_model.hpp"
#include "econ/profit_meter.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_model.hpp"
#include "fault/recovery.hpp"
#include "governor/governor.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "policy/run_policies.hpp"
#include "robustness/core_queue_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "stream/admission.hpp"
#include "stream/degraded_mode.hpp"
#include "stream/energy_account.hpp"
#include "stream/holding_pen.hpp"
#include "stream/stream_config.hpp"
#include "util/rng.hpp"
#include "validate/validation.hpp"
#include "workload/job.hpp"
#include "workload/task.hpp"
#include "workload/task_type_table.hpp"

namespace ecdra::batch {
class BatchScheduler;
}  // namespace ecdra::batch

namespace ecdra::sim {

/// Thrown by Engine::Run when the cooperative wall-clock watchdog
/// (TrialOptions.trial_timeout) expires. The check rides the event loop, so
/// a trial stuck *between* events (not a failure mode of this engine) would
/// not be caught; runaway trials — pathological workloads, filter-chain
/// blowups — are, and the worker thread is freed for the next trial.
class TrialTimeoutError : public std::runtime_error {
 public:
  explicit TrialTimeoutError(double elapsed_seconds)
      : std::runtime_error("trial exceeded its wall-clock watchdog after " +
                           std::to_string(elapsed_seconds) + "s"),
        elapsed_seconds_(elapsed_seconds) {}

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return elapsed_seconds_;
  }

 private:
  double elapsed_seconds_;
};

/// Run policies live in src/policy (policy/run_policies.hpp) so the spec
/// layer can name them without depending on the engine; these aliases keep
/// every existing sim::IdlePolicy / sim::CancelPolicy spelling working.
using IdlePolicy = policy::IdlePolicy;
using CancelPolicy = policy::CancelPolicy;

struct TrialOptions {
  /// zeta_max: wall-energy budget for the window.
  double energy_budget = 0.0;
  IdlePolicy idle_policy = IdlePolicy::kDeepestPState;
  CancelPolicy cancel_policy = CancelPolicy::kRunToCompletion;
  /// Collect the per-task trace (needed by the robustness validation).
  bool collect_task_records = false;
  /// Sample the system robustness rho(t_l) (Eq. 4) at every task arrival
  /// (costs one CoreRobustness sweep per arrival; off by default).
  bool collect_robustness_trace = false;
  /// Time a core spends switching P-states before a task whose state
  /// differs from the core's current one can start. The paper assumes this
  /// is negligible (hundreds of microseconds vs. second-scale tasks); the
  /// ablation quantifies where that assumption breaks. The switching
  /// interval draws the *destination* state's power. At *decision* time the
  /// scheduler's completion model does not anticipate the latency (the
  /// resource manager believes the paper's assumption), but once a task
  /// starts, the CoreQueueModel records its true (delayed) start time —
  /// otherwise every subsequent rho/ReadyPmf/ExpectedReadyTime query would
  /// be systematically optimistic by the accumulated switching time.
  double pstate_transition_latency = 0.0;
  /// Coefficient of variation of per-execution sampled core power (§VIII
  /// future work: power as a distribution, not a constant). 0 = the paper's
  /// average-power model. Heuristics keep estimating EEC with the average —
  /// only the ground truth becomes noisy.
  double power_cov = 0.0;
  /// Collect obs::Counters for this trial into TrialResult.counters. While
  /// enabled, pmf/queue-model instrumentation points count into the trial's
  /// registry via a thread-local scope; disabled costs one null-check per
  /// instrumentation point.
  bool collect_counters = false;
  /// Optional decision/energy trace sink (unowned; must outlive the trial).
  /// One MappingDecisionRecord per arrival plus one EnergySnapshotRecord
  /// after each mapping.
  obs::TraceSink* trace_sink = nullptr;
  /// Trial index stamped into trace records (trials may share one sink).
  std::uint64_t trial_index = 0;
  /// Fault extension (src/fault): this trial's pre-sampled fault schedule.
  /// Empty (the default) reproduces the paper's fault-free cluster
  /// bit-for-bit — no fault bookkeeping touches the hot path.
  fault::FaultSchedule fault_schedule;
  /// What happens to tasks stranded by a permanent core failure.
  fault::RecoveryPolicy recovery_policy = fault::RecoveryPolicy::kDropQueued;
  /// Correlated fault-domain layout the schedule was generated against.
  /// Required whenever the schedule carries domain events; may stay empty
  /// for per-core-only schedules.
  fault::FaultDomainLayout fault_domains;
  /// Invariant validation (src/validate): kOff costs one null-check per
  /// instrumentation point; kCheap adds O(1) engine checks per event;
  /// kDeep audits every pmf operation and the queue-model/engine sync.
  validate::ValidationMode validation = validate::ValidationMode::kOff;
  /// Throw ValidationError at the first violation (tests) instead of
  /// recording into TrialResult.validation and continuing (sweeps).
  bool validation_fail_fast = false;
  /// Cooperative wall-clock watchdog for one trial, in real seconds;
  /// 0 disables. Checked every 64 events; expiry throws TrialTimeoutError.
  double trial_timeout = 0.0;
  /// Online energy governor (src/governor), by registered name. "static"
  /// (the paper baseline) declares an all-off cadence, which disables every
  /// governor hook — the trial takes the exact pre-governor event path.
  /// Unknown names throw std::invalid_argument listing the registry.
  std::string governor = "static";
  /// Streaming service mode (src/stream): replenishing energy account,
  /// rolling windowed metrics, and admission-controlled backpressure.
  /// Disabled (the default) reproduces the fixed-budget trial bit-for-bit —
  /// no stream bookkeeping touches the event loop. When enabled,
  /// energy_budget above still seeds the governor's budget schedule (the
  /// caller sets it to the total accrual over the arrival horizon) but the
  /// within-energy test becomes the account balance, not a fixed cutoff.
  stream::StreamConfig stream;
  /// Job extension (src/workload/job.hpp): treat the task vector as gang +
  /// precedence jobs derived from the tasks' job/stage fields.
  struct JobOptions {
    /// Derive the JobGraph and run the job-level event path. A workload
    /// whose every job is degenerate (1 stage, width 1) demotes back to the
    /// exact task-level path — bit-identical to a pre-jobs build.
    bool enabled = false;
    /// Gang-placement policy by registered name
    /// (core::GangPlacementRegistry): "pack", "spread", or the "serial"
    /// ablation baseline that maps members through the per-task pipeline.
    std::string placement = "pack";
  };
  JobOptions jobs;
  /// Econ extension (src/econ): value-aware scheduling. The engine treats a
  /// trivial model (all values zero, free energy, neutral tiers) exactly
  /// like `enabled = false`, so the degenerate configuration allocates no
  /// profit bookkeeping and reproduces the pre-econ trial bit-for-bit.
  struct EconOptions {
    bool enabled = false;
    econ::EconModel model;
  };
  EconOptions econ;
};

class Engine : private governor::GovernorHost {
 public:
  /// `tasks` must be sorted by arrival time. `scheduler` is consumed for one
  /// trial. `rng` samples actual execution times; substream "exec-u" with
  /// the task id indexes the draw so actuals use common random numbers
  /// across heuristic variants.
  Engine(const cluster::Cluster& cluster, const workload::TaskTypeTable& types,
         std::vector<workload::Task> tasks,
         core::ImmediateModeScheduler& scheduler, const TrialOptions& options,
         util::RngStream rng);
  /// Batch mode: arrivals join a global unmapped pool that `scheduler`
  /// sweeps against the idle cores after every arrival and every finish;
  /// each assignment starts at once on its (idle) core. Batch mode has no
  /// fault, governor, stream, jobs or econ path: `options` asking for any
  /// of them throws std::invalid_argument.
  Engine(const cluster::Cluster& cluster, const workload::TaskTypeTable& types,
         std::vector<workload::Task> tasks, batch::BatchScheduler& scheduler,
         const TrialOptions& options, util::RngStream rng);

  /// Runs the trial to completion (all assigned tasks executed) and returns
  /// the outcome.
  [[nodiscard]] TrialResult Run();

 private:
  struct RunningTask {
    std::size_t task_id = 0;
    double finish_time = 0.0;
    /// P-state the scheduler assigned.
    cluster::PStateIndex pstate = 0;
    /// P-state actually executing (>= pstate when a throttle floor is
    /// active; equal otherwise).
    cluster::PStateIndex exec_pstate = 0;
  };
  /// A task assigned to a core but not yet started: its mapping fixed both
  /// the P-state and (for the simulator) the sampled actual duration.
  struct PendingTask {
    std::size_t task_id = 0;
    double duration = 0.0;
    cluster::PStateIndex pstate = 0;
  };
  /// Ground-truth state of one core.
  struct CoreRuntime {
    cluster::PStateIndex current_pstate = 0;
    cluster::TransitionLog log;
    std::deque<PendingTask> pending;
    RunningTask running;
    bool busy = false;
  };

  /// The state both modes share; the public constructors add their
  /// scheduler. `estimator` is the scheduler's energy estimate.
  Engine(const cluster::Cluster& cluster, const workload::TaskTypeTable& types,
         std::vector<workload::Task> tasks,
         const core::EnergyEstimator& estimator, const TrialOptions& options,
         util::RngStream rng);

  void HandleArrival(const workload::Task& task, double now);
  /// Frees the core and starts its next queued task; in batch mode sweeps
  /// the pool first. A core still free afterwards takes the idle policy.
  void HandleFinish(std::size_t flat_core, double now);
  /// Batch mode: cancels hopeless pooled tasks (kCancelHopelessQueued), then
  /// lets the batch scheduler map the pool onto the idle cores and commits
  /// every assignment through PlaceOnCore.
  void SweepBatchPool(double now);
  /// Applies one fault event: updates the injector/availability state and
  /// carries out the hardware + recovery consequences. Domain events fan out
  /// over the domain's members; the engine acts only on true live<->dead
  /// transitions (a member may already be down via its own failure).
  void HandleFault(const fault::FaultEvent& fault_event, double now);
  /// Hardware consequences of cores going dead (single failure or a whole
  /// domain at once): strand their work, zero their draw, then run the
  /// recovery policy over the stranded tasks.
  void FailCores(std::span<const std::size_t> dead_cores, double now,
                 obs::FaultEventRecord& trace_record);
  /// Recovery of one stranded task through the requeue path (admission
  /// included in streaming mode); falls through to MarkTaskLost on failure.
  void RecoverViaRequeue(std::size_t task_id, double now,
                         obs::FaultEventRecord& trace_record);
  /// RecoveryPolicy::kMigrateQueued: re-plans queued stranded tasks against
  /// the surviving cores in waiting-time-per-joule order, bypassing
  /// streaming admission (migrated tasks were already admitted once).
  void MigrateQueued(const std::vector<std::size_t>& queued, double now,
                     obs::FaultEventRecord& trace_record);
  void MarkTaskLost(std::size_t task_id, double now,
                    obs::FaultEventRecord& trace_record);
  /// Re-times the core's running task (and its finish event) after its
  /// P-state floor changed; bumps an idle core that sits above the floor.
  void ApplyExecFloor(std::size_t flat_core, double now);
  /// Runs the stranded task back through the full mapping pipeline
  /// (RecoveryPolicy::kRequeueToScheduler). Returns true if it found a new
  /// home.
  [[nodiscard]] bool TryRemap(const workload::Task& task, double now);
  /// Commits a chosen assignment: samples the actual duration, updates the
  /// queue model, and starts or enqueues the task (shared by arrival
  /// mapping and fault recovery).
  void PlaceOnCore(const core::Candidate& chosen, const workload::Task& task,
                   double now);
  /// The scheduler's availability view: empty (all cores fully available,
  /// the exact baseline path) unless this trial has a fault schedule, an
  /// active (non-static) governor, or runs in streaming mode (whose
  /// emergency pin is an availability floor).
  [[nodiscard]] std::span<const core::CoreAvailability> AvailabilityView()
      const noexcept {
    return (fault_enabled_ || governor_enabled_ || stream_enabled_)
               ? std::span<const core::CoreAvailability>(availability_)
               : std::span<const core::CoreAvailability>{};
  }
  /// Re-derives one core's scheduler-facing availability from the injector
  /// state and the governor floor (the two floors merge by max).
  void RefreshAvailability(std::size_t flat_core);
  /// Assembles the observation and runs the governor; host actions land
  /// through the private GovernorHost overrides below.
  void InvokeGovernor(double now);
  // -- GovernorHost (counted, traced, and validated engine-side) --
  void SetPStateFloor(std::size_t flat_core,
                      cluster::PStateIndex floor) override;
  bool ParkIdleCore(std::size_t flat_core) override;
  void SetFairShareScale(double scale) override;
  /// Pushes the effective fair-share scale to the scheduler: the governor's
  /// requested scale times (while degraded) the surviving-core fraction.
  void PushFairShare();
  /// Feeds the current lost-core fraction into the degraded-mode hysteresis
  /// and re-pushes the fair share (the surviving fraction may have moved
  /// even without a mode flip).
  void UpdateDegraded(double now);
  /// Returns the time execution actually begins: `now`, delayed by the
  /// P-state transition latency when the core must switch states. The
  /// caller must feed this start time into the core's queue model so the
  /// scheduler's beliefs track the delayed reality.
  double StartOnCore(std::size_t flat_core, std::size_t task_id,
                     double duration, cluster::PStateIndex pstate, double now);
  /// `core_watts` < 0 uses the profile's average power for the state.
  void SwitchPState(std::size_t flat_core, cluster::PStateIndex pstate,
                    double now, double core_watts = -1.0);
  void AdvanceEnergy(double to_time);
  // -- Streaming service mode (src/stream; all no-ops when disabled) --
  /// Best achievable on-time probability for `task` over available cores at
  /// their current P-state floors — the admission stage's rho signal. Idle
  /// cores are visited first and the scan stops at the first exact 1.0.
  [[nodiscard]] double BestAdmissionRho(const workload::Task& task,
                                        double now) const;
  /// Builds the AdmissionView and runs the configured policy.
  [[nodiscard]] stream::AdmissionVerdict DecideAdmission(
      const workload::Task& task, double now);
  /// Parks a task in the holding pen (fresh deferral or fault requeue).
  void DeferToPen(const workload::Task& task);
  /// Records an admission drop (fresh arrival or expired pen entry).
  void DropAtAdmission(std::size_t task_id, double now);
  /// Re-evaluates the pen in waiting-time-per-joule order: releases tasks
  /// admission now accepts (through the remap pipeline), drops expired or
  /// hopeless ones, stops at the first still-deferred entry. Head-only
  /// scans (completions) look at one entry; window boundaries scan all.
  void ReleasePen(double now, bool full_scan);
  /// End-of-trace drain: with no arrivals or assigned work left, force-place
  /// (or drop) every penned task so the trial terminates.
  void DrainPen(double now);
  /// Closes the rolling window ending at `now`: emits the trace record,
  /// folds the accumulators into the trial aggregates, opens the next.
  void CloseWindow(double now);
  [[nodiscard]] double SampleActualDuration(const workload::Task& task,
                                            std::size_t node,
                                            cluster::PStateIndex pstate);
  // -- Job extension (src/workload/job.hpp; all inert when jobs_enabled_
  // is false) --
  /// A released stage waiting for `width` simultaneously-free cores.
  struct PendingGang {
    std::size_t job = 0;
    std::size_t stage = 0;
    /// When the stage became ready (gang_wait_seconds measures from here).
    double released_at = 0.0;
    /// Pulled back by a core/domain failure (members already consumed their
    /// arrival-window slots and count as remapped when placed again).
    bool requeued = false;
    /// Already tallied into gang_waits (first kWait only).
    bool waited = false;
  };
  /// Arrival of one whole job: streaming admission rules once for the job,
  /// then stage 0 is released.
  void HandleJobArrival(std::size_t job_index, double now);
  /// Stage `stage_index` became ready: width-1 stages map through the
  /// ordinary per-task pipeline, wider stages become an all-or-nothing gang
  /// (or map per-task under the "serial" ablation placement).
  void ReleaseStage(std::size_t job_index, std::size_t stage_index,
                    double now, bool requeued);
  /// One placement attempt for a pending gang: builds the gang availability
  /// mask (dead, busy, and reserved cores excluded) and the remaining-chain
  /// pmf, then runs the scheduler's joint pipeline. With no core left free
  /// it waits (no feasible cores) without building either.
  [[nodiscard]] core::GangOutcome AttemptGang(const PendingGang& gang,
                                              double now);
  /// Commits a placed gang: every member starts simultaneously on its
  /// chosen (idle) core.
  void CommitGang(const PendingGang& gang, const core::GangOutcome& outcome,
                  double now);
  /// FIFO sweep of the pending gangs with reservation-aware backfill: a
  /// still-waiting gang reserves its feasible cores so later (narrower)
  /// gangs in the same sweep cannot steal them; expired and infeasible
  /// gangs are abandoned.
  void TryPlacePendingGangs(double now);
  /// End-of-trial drain: with no arrivals, assigned work, or penned tasks
  /// left, one final sweep places what fits; if nothing placed, no future
  /// event can free capacity and the rest are abandoned.
  void DrainGangs(double now);
  /// Gives up on a pending gang (deadline expired, joint infeasibility, or
  /// the end-of-trial drain) and fails its job.
  void AbandonGang(const PendingGang& gang, double now);
  /// Marks the job failed exactly once: tasks of never-released stages
  /// consume their arrival-window slots as discards (unless the job's slots
  /// were prepaid by streaming admission).
  void FailJob(std::size_t job_index, double now);
  /// Per-member completion bookkeeping: releases the successor stage when
  /// the released stage drains, and settles the per-job on-time/late
  /// verdict on the job's last finisher.
  void OnMemberFinished(std::size_t task_id, bool ok, double now);
  /// Optimistic completion pmf of the stages after `stage_index`: per stage
  /// the fastest node's exec pmf at the fastest P-state, max-folded to the
  /// stage width (siblings), suffix-convolved along the chain. Empty for
  /// the final stage.
  [[nodiscard]] std::optional<pmf::Pmf> ChainTailPmf(
      const workload::Job& job, std::size_t stage_index) const;
  /// Pen-release hook: a penned id may represent a whole not-yet-started
  /// job (released as stage 0) or a mid-flight member (ordinary remap).
  /// Returns false when nothing was placed or queued (the job failed).
  [[nodiscard]] bool ReleasePenned(const workload::Task& task, double now);
  /// Deep check: the scheduler's CoreQueueModel for `flat_core` must mirror
  /// the engine's ground truth (busy flag, running task id, queue depth).
  void CheckQueueModelSync(std::size_t flat_core, double now) const;

  const cluster::Cluster* cluster_;
  const workload::TaskTypeTable* types_;
  std::vector<workload::Task> tasks_;
  /// Exactly one of scheduler_ (immediate mode) and batch_ is set.
  core::ImmediateModeScheduler* scheduler_ = nullptr;
  batch::BatchScheduler* batch_ = nullptr;
  /// The set scheduler's energy estimate (energy snapshots, the result).
  const core::EnergyEstimator* estimator_;
  TrialOptions options_;
  util::RngStream rng_;

  std::vector<CoreRuntime> runtime_;
  std::vector<robustness::CoreQueueModel> models_;
  cluster::OnlineEnergyMeter meter_;
  /// Indexed min-heap (event_queue.hpp): throttle re-times and core
  /// failures update/remove finish events in place instead of leaving
  /// stale heap entries to skip at pop time.
  EventQueue events_;
  std::uint64_t next_seq_ = 0;
  std::optional<double> exhausted_at_;
  std::size_t cancelled_ = 0;
  // -- Fault extension state (inert when fault_enabled_ is false) --
  bool fault_enabled_ = false;
  fault::FaultInjector injector_;
  /// Scheduler-facing availability, kept in sync with the injector.
  std::vector<core::CoreAvailability> availability_;
  /// Per-task "was re-mapped" flags (sized only when faults are enabled).
  std::vector<std::uint8_t> remapped_;
  /// Per-task "was migrated off a failed core/domain while queued" flags.
  std::vector<std::uint8_t> migrated_;
  std::size_t tasks_lost_ = 0;
  std::size_t tasks_remapped_ = 0;
  std::size_t remapped_on_time_ = 0;
  std::size_t tasks_migrated_ = 0;
  std::size_t migrated_on_time_ = 0;
  // -- Governor extension state (inert when governor_enabled_ is false) --
  bool governor_enabled_ = false;
  std::unique_ptr<governor::Governor> governor_;
  governor::GovernorCadence cadence_;
  /// Per-core governor P-state floor (merged into availability_ by max with
  /// any fault throttle floor).
  std::vector<cluster::PStateIndex> governor_floor_;
  /// Cores the governor parked (power-gated while idle); cleared when a task
  /// starts on the core or a fault event force-switches it.
  std::vector<std::uint8_t> parked_;
  /// Observation scratch, rebuilt per invocation.
  std::vector<governor::CoreView> core_views_;
  /// Last arrival time — the budget schedule's horizon.
  double horizon_ = 0.0;
  /// The governor's requested fair-share scale (its own mirror for the
  /// unchanged-scale early-out). What the scheduler actually receives is
  /// pushed_share_scale_ — the request times the degraded-mode shrink.
  double fair_share_scale_ = 1.0;
  /// Effective scale last pushed to the scheduler via PushFairShare().
  double pushed_share_scale_ = 1.0;
  /// Clock of the in-flight InvokeGovernor, stamped into action records.
  double governor_now_ = 0.0;
  // -- Streaming extension state (inert when stream_enabled_ is false) --
  bool stream_enabled_ = false;
  stream::EnergyAccount account_;
  std::unique_ptr<stream::AdmissionPolicy> admission_;
  /// False for the "none" policy: arrivals skip the rho sweep entirely.
  bool admission_active_ = false;
  stream::HoldingPen pen_;
  /// Mirrors account_.emergency() so a flip is detected (and the
  /// availability floors refreshed) exactly once per transition.
  bool emergency_active_ = false;
  /// Degraded-mode hysteresis over the lost-core fraction (fault domains);
  /// disarmed (enter > 1) unless the stream config arms it.
  stream::DegradedMode degraded_;
  double window_length_ = 0.0;
  /// Accumulators of the currently open rolling window.
  struct WindowAccumulator {
    std::uint64_t index = 0;
    double start = 0.0;
    /// meter_.consumed() when the window opened.
    double joules_open = 0.0;
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t deferred = 0;
    std::uint64_t dropped = 0;
    std::uint64_t released = 0;
    std::uint64_t on_time = 0;
    std::uint64_t late = 0;
    std::uint64_t over_energy = 0;
  };
  WindowAccumulator window_;
  StreamStats stream_stats_;
  // -- Job extension state (inert when jobs_enabled_ is false) --
  bool jobs_enabled_ = false;
  /// Mirror of the placement policy's Serializes(): gang members take the
  /// ordinary per-task pipeline (the ablation baseline).
  bool serializes_ = false;
  workload::JobGraph graph_;
  /// Task id -> job index (sized only in jobs mode).
  std::vector<std::size_t> job_of_;
  /// Mutable per-job progress.
  struct JobRuntime {
    /// Unfinished tasks of the currently released stage.
    std::size_t stage_remaining = 0;
    /// Stages [0, next_stage) have been released.
    std::size_t next_stage = 0;
    /// Unfinished tasks across all stages (0 = the job completed).
    std::size_t tasks_remaining = 0;
    bool failed = false;
    /// Tallied into exactly one of jobs_on_time/jobs_late/jobs_failed.
    bool counted = false;
    /// Streaming admission consumed every member's arrival-window slot up
    /// front (defer/drop rule once per job); later releases re-enter
    /// through the remap pipeline and failures skip DiscardTasks.
    bool prepaid = false;
  };
  std::vector<JobRuntime> job_runtime_;
  std::deque<PendingGang> pending_gangs_;
  /// Cores reserved by waiting gangs during the current sweep; gang
  /// placement skips them, narrower per-task work still queues freely.
  std::vector<std::uint8_t> reserved_;
  /// Scratch availability mask handed to MapGang.
  std::vector<core::CoreAvailability> gang_availability_;
  JobStats job_stats_;
  /// Priority-weighted completed jobs (jobs mode replaces the per-task
  /// weighted tallies with per-job ones).
  double weighted_jobs_completed_ = 0.0;
  // -- Econ extension state (inert when econ_enabled_ is false) --
  bool econ_enabled_ = false;
  /// Per-trial profit accounting against options_.econ.model (allocated
  /// only in econ mode).
  std::optional<econ::ProfitMeter> profit_;
  /// Task ids already tallied into the task-level result buckets: a gang
  /// restart after a fault re-runs already-finished members, and only their
  /// first finish may count (jobs mode only).
  std::vector<std::uint8_t> member_tallied_;
  /// Tasks currently assigned to some core (running or queued); lets the
  /// event loop stop once all work is resolved instead of draining
  /// trailing fault events.
  std::size_t active_tasks_ = 0;
  /// Batch mode's global unmapped pool, in arrival order.
  std::vector<workload::Task> batch_pool_;
  std::vector<TaskRecord> records_;
  std::vector<RobustnessSample> robustness_trace_;
  cluster::PStateIndex idle_pstate_;
  /// Trial-local counter registry (populated when collect_counters is set;
  /// the scheduler writes its slots through SetObservability).
  obs::Counters counters_;
};

}  // namespace ecdra::sim
