#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <ranges>
#include <sstream>

#include "batch/batch_scheduler.hpp"
#include "robustness/robustness.hpp"
#include "util/assert.hpp"

namespace ecdra::sim {
namespace {

const char* FaultKindName(fault::FaultEventKind kind) {
  switch (kind) {
    case fault::FaultEventKind::kCoreFailure:
      return "failure";
    case fault::FaultEventKind::kCoreRepair:
      return "repair";
    case fault::FaultEventKind::kThrottleStart:
      return "throttle_start";
    case fault::FaultEventKind::kThrottleEnd:
      return "throttle_end";
    case fault::FaultEventKind::kDomainOutage:
      return "domain_outage";
    case fault::FaultEventKind::kDomainRepair:
      return "domain_repair";
  }
  return "unknown";
}

}  // namespace

Engine::Engine(const cluster::Cluster& cluster,
               const workload::TaskTypeTable& types,
               std::vector<workload::Task> tasks,
               const core::EnergyEstimator& estimator,
               const TrialOptions& options, util::RngStream rng)
    : cluster_(&cluster),
      types_(&types),
      tasks_(std::move(tasks)),
      estimator_(&estimator),
      options_(options),
      rng_(std::move(rng)),
      runtime_(cluster.total_cores()),
      models_(cluster.total_cores()),
      meter_(cluster, cluster::kNumPStates - 1),
      events_(cluster.total_cores()),
      // Every extension's state, in both modes; an extension that is off
      // holds its neutral value. Resolving the governor name validates it;
      // "static" declares an empty cadence.
      injector_(cluster.total_cores(), options.fault_schedule,
                options.fault_domains),
      availability_(cluster.total_cores()),
      remapped_(tasks_.size(), 0),
      migrated_(tasks_.size(), 0),
      governor_(governor::MakeGovernor(options.governor)),
      cadence_(governor_->cadence()),
      governor_floor_(cluster.total_cores(), 0),
      parked_(cluster.total_cores(), 0),
      core_views_(cluster.total_cores()),
      horizon_(tasks_.empty() ? 0.0 : tasks_.back().arrival),
      stream_enabled_(options.stream.enabled),
      reserved_(cluster.total_cores(), 0),
      profit_(options_.econ),
      member_tallied_(tasks_.size(), 0),
      idle_pstate_(cluster::kNumPStates - 1) {
  ECDRA_REQUIRE(options.energy_budget > 0.0, "energy budget must be positive");
  ECDRA_REQUIRE(std::is_sorted(tasks_.begin(), tasks_.end(),
                               [](const auto& a, const auto& b) {
                                 return a.arrival < b.arrival;
                               }),
                "tasks must be sorted by arrival time");
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    ECDRA_REQUIRE(tasks_[i].id == i, "task ids must equal arrival order");
  }
  exec_u_.resize(tasks_.size());
  rng_.SubstreamFirstUniforms("exec-u", exec_u_);
  // Every task is a member of one job; a task with the default kSelfJob is
  // its own one-task job. Jobs partition the task ids in order.
  graph_ = workload::BuildJobGraph(tasks_);
  job_of_.reserve(tasks_.size());
  for (std::size_t j = 0; j < graph_.size(); ++j) {
    job_of_.insert(job_of_.end(), graph_.total_tasks(j),
                   static_cast<std::uint32_t>(j));
  }
  job_runtime_.resize(graph_.size());
  // §III-C: every core records its start-of-workload transition at t = 0
  // into the initial (deepest or gated) P-state.
  const bool gated = options_.idle_policy == IdlePolicy::kPowerGated;
  for (std::size_t flat = 0; flat < runtime_.size(); ++flat) {
    runtime_[flat].current_pstate = idle_pstate_;
    runtime_[flat].log.push_back(
        {0.0, idle_pstate_, gated ? 0.0 : -1.0});
    if (gated) meter_.SetPStateWithPower(flat, idle_pstate_, 0.0);
  }
  if (options_.collect_task_records) {
    records_.resize(tasks_.size());
    for (const workload::Task& task : tasks_) {
      TaskRecord& record = records_[task.id];
      record.task_id = task.id;
      record.type = task.type;
      record.arrival = task.arrival;
      record.deadline = task.deadline;
    }
  }
}

Engine::Engine(const cluster::Cluster& cluster,
               const workload::TaskTypeTable& types,
               std::vector<workload::Task> tasks,
               batch::BatchScheduler& scheduler, const TrialOptions& options,
               util::RngStream rng)
    : Engine(cluster, types, std::move(tasks), scheduler.estimator(), options,
             std::move(rng)) {
  // Each extension calls into the immediate scheduler (remaps, admission,
  // fair-share scaling, gangs, the econ view), which batch mode does not
  // have; one line names every input that asks for one.
  std::string refused;
  const auto refuse = [&refused](const std::string& input) {
    refused += (refused.empty() ? "" : ", ") + input;
  };
  if (!options_.fault_schedule.empty()) refuse("a fault schedule");
  if (options_.governor != "static") {
    refuse("governor \"" + options_.governor + "\"");
  }
  if (stream_enabled_) refuse("stream mode");
  for (std::size_t j = 0; j < graph_.size(); ++j) {
    if (graph_.total_tasks(j) == 1) continue;
    refuse("task " + std::to_string(graph_.first_task(j)) + " of gang job " +
           std::to_string(j));
    break;
  }
  if (!options_.econ.trivial()) refuse("a non-trivial econ model");
  if (!refused.empty()) {
    throw std::invalid_argument("batch mode cannot run " + refused +
                                " (use the immediate-mode engine)");
  }
  batch_ = &scheduler;
  batch_->SetObservability(core::SchedulerObservability{
      options_.collect_counters ? &counters_ : nullptr, options_.trace_sink,
      options_.trial_index});
}

Engine::Engine(const cluster::Cluster& cluster,
               const workload::TaskTypeTable& types,
               std::vector<workload::Task> tasks,
               core::ImmediateModeScheduler& scheduler,
               const TrialOptions& options, util::RngStream rng)
    : Engine(cluster, types, std::move(tasks), scheduler.estimator(), options,
             std::move(rng)) {
  scheduler_ = &scheduler;
  scheduler_->SetObservability(core::SchedulerObservability{
      options_.collect_counters ? &counters_ : nullptr, options_.trace_sink,
      options_.trial_index});

  // Streaming service mode (src/stream): the replenishing account, the
  // admission policy (resolving the name validates it; "none" reports
  // inactive so arrivals skip the rho sweep), and degraded mode.
  if (stream_enabled_) {
    ECDRA_REQUIRE(options_.stream.window_length > 0.0,
                  "stream window length must be positive");
    account_ = stream::EnergyAccount(options_.stream);
    admission_ = stream::MakeAdmissionPolicy(options_.stream.admission,
                                             options_.stream.admission_options);
    admission_active_ = admission_->active();
    window_length_ = options_.stream.window_length;
    degraded_ = stream::DegradedMode(options_.stream.degraded_enter,
                                     options_.stream.degraded_exit);
    // An account born below the enter threshold is already in emergency; the
    // floors must say so before the first arrival maps.
    emergency_active_ = account_.emergency();
    if (emergency_active_) {
      for (std::size_t flat = 0; flat < runtime_.size(); ++flat) {
        RefreshAvailability(flat);
      }
    }
  }

  // Econ extension (src/econ): the scheduler always reads the run's model;
  // the default all-zero model makes every econ-aware rule vacuous.
  scheduler_->SetEconModel(&options_.econ);

  // Resolving the gang placement name validates it on every trial, like the
  // governor's; a workload of one-task jobs never calls MapGang.
  scheduler_->ConfigureGangs(options_.gang_placement);
  serializes_ = scheduler_->gang_placement()->Serializes();
}

TrialResult Engine::Run() {
  // While this trial runs, deep instrumentation points (pmf ops, ReadyPmf
  // cache probes) report into counters_ through the thread-local scope; a
  // null scope (counters disabled) leaves the thread-local untouched.
  const obs::CountersScope counters_scope(
      options_.collect_counters ? &counters_ : nullptr);
  // The invariant validator rides the same thread-local pattern: pmf and
  // engine check sites see it (or a null) for the duration of the trial.
  std::optional<validate::TrialValidator> validator;
  if (options_.validation != validate::ValidationMode::kOff) {
    validator.emplace(options_.validation, options_.validation_fail_fast);
  }
  const validate::ValidatorScope validator_scope(
      validator ? &*validator : nullptr);

  const auto watchdog_start = std::chrono::steady_clock::now();
  std::uint64_t events_handled = 0;

  TrialResult result;
  result.window_size = tasks_.size();

  // Every task is offered to the profit meter exactly once so forfeited
  // value (discards, drops, never-finished work) shows up as the gap
  // between value_offered and revenue.
  for (const workload::Task& task : tasks_) profit_.Offer(task);

  // One kind-2 event per job (event.index is a job index; every member task
  // shares the job's arrival and priority, read from its first task), and
  // the trial is weighted by job priorities. In a workload of one-task jobs,
  // job j is task j.
  std::size_t arrivals_pending = graph_.size();
  events_.Reserve(arrivals_pending + injector_.events().size() + 1);
  for (std::size_t j = 0; j < graph_.size(); ++j) {
    const workload::Task& first = tasks_[graph_.first_task(j)];
    result.weighted_total += first.priority;
    events_.Push(Event{first.arrival, 2, j, next_seq_++});
  }
  for (std::size_t i = 0; i < injector_.events().size(); ++i) {
    events_.Push(Event{injector_.events()[i].time, 1, i, next_seq_++});
  }
  if (cadence_.tick_period > 0.0) {
    events_.Push(Event{cadence_.tick_period, 3, 0, next_seq_++});
  }
  if (stream_enabled_) {
    events_.Push(Event{window_length_, 4, 0, next_seq_++});
  }

  std::size_t fault_events_pending = injector_.events().size();
  double now = 0.0;
  while (!events_.empty()) {
    const Event event = events_.PopMin();
    if (options_.trial_timeout > 0.0 && (++events_handled & 63u) == 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        watchdog_start)
              .count();
      if (elapsed > options_.trial_timeout) throw TrialTimeoutError(elapsed);
    }
    if (validator) {
      // Cheap invariant: the event queue must never hand back a time before
      // the clock — a violation means ordering (and so energy integration)
      // has gone wrong.
      validator->CountChecks();
      if (event.time < now) {
        std::ostringstream os;
        os << "event kind " << event.kind << " at t=" << event.time
           << " scheduled before the clock t=" << now;
        validator->Fail("event-monotonicity", now, os.str());
      }
    }
    if (event.kind == 0) {
      // The indexed queue updates/removes finish events at the moment a
      // throttle re-times or a failure kills the running task, so a popped
      // finish must always match the core's ground truth.
      const CoreRuntime& core = runtime_[event.index];
      ECDRA_ASSERT(core.busy && core.running.task_id == event.tag &&
                       core.running.finish_time == event.time,
                   "stale finish event survived in the indexed event queue");
    }
    AdvanceEnergy(event.time);
    now = event.time;
    if (event.kind == 2) {
      --arrivals_pending;
      HandleJobArrival(event.index, now);
      if (cadence_.on_assignment) InvokeGovernor(now);
      if (options_.collect_robustness_trace) {
        // Sampled after the arrival is mapped, so the trace reflects the
        // allocation the scheduler just produced. in_flight counts every
        // task still assigned to a core — the one currently running plus
        // the queued FIFO — spelled out here so the trace's meaning does
        // not silently drift if queue_length()'s definition ever changes.
        std::size_t in_flight = 0;
        for (const robustness::CoreQueueModel& model : models_) {
          in_flight += (model.idle() ? 0u : 1u) + model.queued().size();
        }
        robustness_trace_.push_back(RobustnessSample{
            now, robustness::SystemRobustness(models_, now), in_flight});
      }
      if (options_.trace_sink != nullptr) {
        options_.trace_sink->Record(obs::EnergySnapshotRecord{
            options_.trial_index, now, meter_.consumed(),
            options_.energy_budget, estimator_->remaining()});
      }
    } else if (event.kind == 1) {
      --fault_events_pending;
      HandleFault(injector_.events()[event.index], now);
      // A repair may have revived enough distinct cores for a waiting gang.
      TryPlacePendingGangs(now);
    } else if (event.kind == 3) {
      // Governor tick. The next one is only scheduled while work remains,
      // so trailing ticks cannot stretch the event loop past the workload.
      InvokeGovernor(now);
      if (arrivals_pending > 0 || active_tasks_ > 0) {
        events_.Push(Event{now + cadence_.tick_period, 3, 0, next_seq_++});
      }
    } else if (event.kind == 4) {
      // Window boundary: close the metrics window first (pen releases start
      // work in the window that opens), then re-scan the whole pen. With no
      // arrivals or assigned work left, anything still penned would wait
      // forever — drain it so the trial terminates.
      CloseWindow(now);
      ReleasePen(now, /*full_scan=*/true);
      if (arrivals_pending == 0 && active_tasks_ == 0 && !pen_.empty()) {
        DrainPen(now);
      }
      if (arrivals_pending > 0 || active_tasks_ > 0 || !pen_.empty()) {
        events_.Push(Event{now + window_length_, 4, 0, next_seq_++});
      }
    } else {
      // Tally the finishing task before mutating core state.
      const std::size_t flat = event.index;
      const std::size_t task_id = runtime_[flat].running.task_id;
      const workload::Task& task = tasks_[task_id];
      const bool on_time = now <= task.deadline;
      // Streaming mode has no fixed cutoff instant: within-energy means the
      // account is solvent when the task finishes (the draw was netted
      // against the accrual up to exactly this moment).
      const bool within_energy =
          stream_enabled_ ? account_.available() >= 0.0
                          : (!exhausted_at_ || now <= *exhausted_at_);
      const bool ok = on_time && within_energy;
      // A gang restart after a fault re-runs already-finished members; only
      // a member's first finish counts toward the task-level buckets (the
      // job-level verdict always uses the finish that actually happened).
      if (member_tallied_[task_id] == 0) {
        member_tallied_[task_id] = 1;
        if (ok) {
          ++result.completed;
          ++window_.on_time;
          if (remapped_[task_id] != 0) ++remapped_on_time_;
          if (migrated_[task_id] != 0) ++migrated_on_time_;
        } else if (!on_time) {
          ++result.finished_late;
          ++window_.late;
        } else {
          ++result.on_time_but_over_budget;
          ++window_.over_energy;
        }
        // A late finish may still earn a decayed fraction; an insolvent
        // (over-budget) finish earns nothing.
        profit_.Finish(task, now, within_energy);
      }
      --active_tasks_;
      if (options_.collect_task_records) {
        TaskRecord& record = records_[task_id];
        record.finish_time = now;
        record.on_time = on_time;
        record.within_energy = within_energy;
      }
      HandleFinish(flat, now);
      if (validator && validator->deep()) CheckQueueModelSync(flat, now);
      // Order matters: HandleFinish freed the core (and started any queued
      // successor), so a stage release triggered here sees that capacity.
      OnMemberFinished(task_id, ok, now);
      TryPlacePendingGangs(now);
      // A completion freed capacity: give the most-owed penned task one
      // chance to re-enter (full scans wait for the window boundary).
      ReleasePen(now, false);
      if (cadence_.on_completion) InvokeGovernor(now);
    }
    // With all arrivals seen, no task assigned anywhere, and nothing penned,
    // nothing left in the queue can matter — only stale finishes, trailing
    // fault events, and trailing window boundaries.
    if (arrivals_pending == 0 && active_tasks_ == 0 && pen_.empty()) {
      if (!pending_gangs_.empty()) {
        // A still-queued repair can revive the distinct cores a waiting
        // gang needs — keep consuming fault events before giving up.
        if (fault_events_pending > 0) continue;
        // Nothing else can free capacity: place what fits now and abandon
        // the rest so the trial terminates.
        DrainGangs(now);
        if (active_tasks_ > 0) continue;
      }
      break;
    }
  }

  // Close the final (partial) rolling window; every event after the last
  // boundary is strictly later than it, so now > window start iff anything
  // happened since.
  if (stream_enabled_ && now > window_.start) CloseWindow(now);

  // Queue-model/engine synchronization holds at every instant in deep mode;
  // cheap mode settles for the end-of-trial sweep (every model must have
  // drained along with the engine's ground truth).
  if (validator) {
    for (std::size_t flat = 0; flat < runtime_.size(); ++flat) {
      CheckQueueModelSync(flat, now);
    }
  }

  // End-of-workload transition for every core (§III-C), then reconcile the
  // Eq. 1/2 post-hoc energy with the online meter.
  std::vector<cluster::TransitionLog> logs;
  logs.reserve(runtime_.size());
  for (CoreRuntime& core : runtime_) {
    core.log.push_back({now, core.current_pstate});
    logs.push_back(core.log);
  }
  const double post_hoc = cluster::ClusterEnergyFromLogs(*cluster_, logs);
  const double online = meter_.consumed();
  ECDRA_ASSERT(std::fabs(post_hoc - online) <=
                   1e-6 * std::max(1.0, std::fabs(post_hoc)),
               "online and post-hoc energy accounting disagree");

  if (batch_ != nullptr) {
    // Tasks still pooled when the work drained (the filters kept eliminating
    // every candidate, e.g. after the budget estimate collapsed) never ran:
    // the batch analogue of a discard. Every sweep re-filtered them, so no
    // single filter owns the discard and only the total is counted.
    result.discarded = batch_pool_.size();
    counters_.tasks_discarded += batch_pool_.size();
    for (const workload::Task& task : batch_pool_) {
      FailJob(job_of_[task.id], now);
    }
  } else {
    result.discarded = scheduler_->tasks_discarded();
  }
  if (validator) {
    // Cheap invariant: every job settles exactly once, as on time, late or
    // failed (JobRuntime::counted stops a second count; this catches a
    // job that never counted).
    validator->CountChecks();
    const std::size_t tallied = job_stats_.jobs_on_time +
                                job_stats_.jobs_late + job_stats_.jobs_failed;
    if (tallied != graph_.size()) {
      std::ostringstream os;
      os << tallied << " of " << graph_.size() << " jobs tallied";
      validator->Fail("job-tally", now, os.str());
    }
  }
  result.cancelled = cancelled_;
  result.failures_injected = injector_.failures_applied();
  result.repairs_applied = injector_.repairs_applied();
  result.throttles_injected = injector_.throttles_applied();
  result.tasks_lost_to_failures = tasks_lost_;
  result.tasks_remapped = tasks_remapped_;
  result.remapped_on_time = remapped_on_time_;
  result.domain_outages = injector_.domain_outages_applied();
  result.domain_repairs = injector_.domain_repairs_applied();
  result.tasks_migrated = tasks_migrated_;
  result.migrated_on_time = migrated_on_time_;
  result.missed_deadlines = result.window_size - result.completed;
  result.weighted_completed = weighted_jobs_completed_;
  result.weighted_missed = result.weighted_total - result.weighted_completed;
  // The jobs block is written only when some task is not its own job.
  if (graph_.size() != tasks_.size()) {
    job_stats_.enabled = true;
    job_stats_.jobs = graph_.size();
    result.jobs = job_stats_;
  }
  result.total_energy = post_hoc;
  result.energy_exhausted_at = exhausted_at_;
  result.estimated_energy_remaining = estimator_->remaining();
  result.makespan = now;
  if (stream_enabled_) {
    stream_stats_.enabled = true;
    stream_stats_.pen_peak = pen_.peak();
    stream_stats_.emergency_entries = account_.emergency_entries();
    stream_stats_.emergency_seconds = account_.emergency_seconds(now);
    stream_stats_.degraded_entries = degraded_.entries();
    stream_stats_.degraded_seconds = degraded_.degraded_seconds(now);
    stream_stats_.min_available = account_.min_available();
    stream_stats_.final_available = account_.available();
    result.stream = stream_stats_;
  }
  if (!options_.econ.trivial()) {
    profit_.Settle(post_hoc);
    result.econ.enabled = true;
    result.econ.revenue = profit_.revenue();
    result.econ.energy_cost = profit_.energy_cost();
    result.econ.net_profit = profit_.net_profit();
    result.econ.value_offered = profit_.value_offered();
    result.econ.paid_finishes = profit_.paid_finishes();
    result.econ.decayed_finishes = profit_.decayed_finishes();
    result.econ.premium_total = profit_.premium_total();
    result.econ.premium_on_time = profit_.premium_on_time();
    if (options_.trace_sink != nullptr) {
      options_.trace_sink->Record(obs::ProfitRecord{
          options_.trial_index, now, result.econ.revenue,
          result.econ.energy_cost, result.econ.net_profit,
          result.econ.value_offered, result.econ.paid_finishes,
          result.econ.decayed_finishes});
    }
  }
  result.task_records = std::move(records_);
  result.robustness_trace = std::move(robustness_trace_);
  if (options_.collect_counters) {
    counters_.tasks_cancelled = cancelled_;
    counters_.stream_windows = stream_stats_.windows;
    counters_.stream_deferred = stream_stats_.deferred;
    counters_.stream_admission_dropped = stream_stats_.admission_dropped;
    counters_.stream_released = stream_stats_.released;
    counters_.stream_forced_admissions = stream_stats_.forced_admissions;
    counters_.stream_emergency_entries = stream_stats_.emergency_entries;
    result.counters = counters_;
  }
  if (validator) result.validation = validator->TakeReport();
  if (options_.trace_sink != nullptr) options_.trace_sink->Flush();
  return result;
}

void Engine::CheckQueueModelSync(std::size_t flat_core, double now) const {
  validate::TrialValidator* validator = validate::ActiveValidator();
  if (validator == nullptr) return;
  validator->CountChecks();
  const CoreRuntime& core = runtime_[flat_core];
  const robustness::CoreQueueModel& model = models_[flat_core];
  const bool busy_matches = model.idle() == !core.busy;
  const bool queue_matches = model.queued().size() == core.pending.size();
  const bool running_matches =
      !core.busy ||
      (model.running() && model.running()->task_id == core.running.task_id);
  if (busy_matches && queue_matches && running_matches) return;
  std::ostringstream os;
  os << "core " << flat_core << ": engine (busy=" << core.busy
     << ", running=" << (core.busy ? core.running.task_id : 0)
     << ", queued=" << core.pending.size() << ") vs model (idle="
     << model.idle() << ", queued=" << model.queued().size() << ")";
  validator->Fail("queue-model-sync", now, os.str());
}

void Engine::PlaceOnCore(const core::Candidate& chosen,
                         const workload::Task& task, double now) {
  const std::size_t flat = chosen.assignment.flat_core;
  const cluster::PStateIndex pstate = chosen.assignment.pstate;

  if (options_.collect_task_records) {
    TaskRecord& record = records_[task.id];
    record.assigned = true;
    record.flat_core = flat;
    record.pstate = pstate;
    record.rho_at_assignment = robustness::OnTimeProbability(
        models_[flat], now, *chosen.exec, task.deadline);
  }

  const double duration = SampleActualDuration(task, chosen.node, pstate);
  const robustness::ModeledTask modeled{task.id, chosen.exec, task.deadline};
  ++active_tasks_;
  if (runtime_[flat].busy) {
    runtime_[flat].pending.push_back(PendingTask{task.id, duration, pstate});
    models_[flat].Enqueue(modeled);
  } else {
    // The queue model must see the *actual* start time — delayed by any
    // P-state transition — or every later rho/ReadyPmf query against this
    // core would be optimistic by the switching latency.
    const double start = StartOnCore(flat, task.id, duration, pstate, now);
    models_[flat].StartTask(modeled, start);
  }
}

bool Engine::TryRemap(const workload::Task& task, double now) {
  const std::optional<core::Candidate> chosen =
      scheduler_->RemapTask(task, now, models_, availability_);
  if (!chosen) return false;
  PlaceOnCore(*chosen, task, now);
  return true;
}

void Engine::HandleFault(const fault::FaultEvent& fault_event, double now) {
  // A domain event touches every member of its domain; everything else
  // touches one core. The injector's down-counts decide which affected
  // cores actually change state — a domain member may already be down via
  // its own failure (and stay down through the domain's repair), so the
  // engine compares available() across Apply and acts only on true
  // transitions.
  const bool domain_event =
      fault_event.kind == fault::FaultEventKind::kDomainOutage ||
      fault_event.kind == fault::FaultEventKind::kDomainRepair;
  const std::size_t self[1] = {fault_event.flat_core};
  const std::span<const std::size_t> affected =
      domain_event ? std::span<const std::size_t>(
                         injector_.domains().members[fault_event.domain])
                   : std::span<const std::size_t>(self);
  std::vector<std::uint8_t> was_live(affected.size());
  for (std::size_t i = 0; i < affected.size(); ++i) {
    was_live[i] = injector_.available(affected[i]) ? 1 : 0;
  }

  injector_.Apply(fault_event);
  for (const std::size_t flat : affected) RefreshAvailability(flat);
  // Failure and repair force the core's P-state; either way any governor
  // parking is void (ParkIdleCore re-checks the actual draw anyway).
  const bool kills_or_revives =
      fault_event.kind == fault::FaultEventKind::kCoreFailure ||
      fault_event.kind == fault::FaultEventKind::kCoreRepair || domain_event;
  if (kills_or_revives) {
    for (const std::size_t flat : affected) parked_[flat] = 0;
  }

  obs::FaultEventRecord trace_record;
  switch (fault_event.kind) {
    case fault::FaultEventKind::kCoreFailure:
    case fault::FaultEventKind::kDomainOutage: {
      obs::Bump(domain_event ? &obs::Counters::domain_outages_applied
                             : &obs::Counters::failures_injected);
      std::vector<std::size_t> dead;
      dead.reserve(affected.size());
      for (std::size_t i = 0; i < affected.size(); ++i) {
        if (was_live[i] != 0 && !injector_.available(affected[i])) {
          dead.push_back(affected[i]);
        }
      }
      FailCores(dead, now, trace_record);
      break;
    }
    case fault::FaultEventKind::kCoreRepair:
    case fault::FaultEventKind::kDomainRepair: {
      obs::Bump(domain_event ? &obs::Counters::domain_repairs_applied
                             : &obs::Counters::repairs_applied);
      // Revived cores rejoin idle and empty; restore the idle draw (zero if
      // idle cores are power-gated). Members still held down by their own
      // failure stay dead and dark.
      const bool gated = options_.idle_policy == IdlePolicy::kPowerGated;
      for (std::size_t i = 0; i < affected.size(); ++i) {
        if (was_live[i] == 0 && injector_.available(affected[i])) {
          SwitchPState(affected[i], idle_pstate_, now, gated ? 0.0 : -1.0);
        }
      }
      break;
    }
    case fault::FaultEventKind::kThrottleStart:
      obs::Bump(&obs::Counters::throttles_applied);
      trace_record.pstate_floor = fault_event.pstate_floor;
      if (injector_.available(fault_event.flat_core)) {
        ApplyExecFloor(fault_event.flat_core, now);
      }
      break;
    case fault::FaultEventKind::kThrottleEnd:
      if (injector_.available(fault_event.flat_core)) {
        ApplyExecFloor(fault_event.flat_core, now);
      }
      break;
  }

  // Degraded-mode bookkeeping rides every capacity change, not just domain
  // events: a lone core failure nudges the lost fraction too (and while
  // degraded, every loss or partial repair moves the fair-share shrink).
  if (kills_or_revives) UpdateDegraded(now);

  if (options_.trace_sink != nullptr) {
    trace_record.trial = options_.trial_index;
    trace_record.time = now;
    trace_record.kind = FaultKindName(fault_event.kind);
    trace_record.flat_core = fault_event.flat_core;
    trace_record.domain = domain_event ? fault_event.domain : 0;
    options_.trace_sink->Record(trace_record);
  }
}

void Engine::FailCores(std::span<const std::size_t> dead_cores, double now,
                       obs::FaultEventRecord& trace_record) {
  // Strand every task assigned to the dead cores: partially-executed
  // running tasks (their progress is wasted) separately from the queued
  // FIFOs — the recovery policies treat the two differently.
  std::vector<std::size_t> running_stranded;
  std::vector<std::size_t> queued_stranded;
  for (const std::size_t flat : dead_cores) {
    CoreRuntime& core = runtime_[flat];
    if (core.busy) {
      running_stranded.push_back(core.running.task_id);
      core.busy = false;
      events_.RemoveFinish(flat);  // the running task will never finish
    }
    for (const PendingTask& pending : core.pending) {
      queued_stranded.push_back(pending.task_id);
    }
    core.pending.clear();
    models_[flat].Reset();
    // A dead core draws nothing until repaired.
    SwitchPState(flat, idle_pstate_, now, 0.0);
  }
  active_tasks_ -= running_stranded.size() + queued_stranded.size();

  // A dead gang member pulls back its whole in-flight gang — a rigid
  // stage's outputs only commit when the entire stage completes, so
  // surviving mates are aborted (their progress is wasted) and the gang
  // re-enters the pending queue under requeue/migrate recovery.
  // Already-finished members re-run with it; the stage's count resets here
  // and only their first finish tallies at task level. Width-1 stage
  // members stay in running_stranded and take the per-task recovery below.
  // Gang members never sit in a core's FIFO, so queued_stranded is
  // untouched.
  if (!serializes_) {
    struct HitStage {
      std::size_t job = 0;
      std::size_t stage = 0;
      std::vector<std::size_t> stranded;
    };
    std::vector<std::size_t> singles;
    std::vector<HitStage> hit;
    for (const std::size_t task_id : running_stranded) {
      const std::size_t job_index = job_of_[task_id];
      const JobRuntime& rt = job_runtime_[job_index];
      ECDRA_ASSERT(rt.next_stage > 0,
                   "stranded member of a never-released stage");
      const std::size_t stage_index = rt.next_stage - 1;
      if (graph_.stage(job_index, stage_index).width < 2) {
        singles.push_back(task_id);
        continue;
      }
      const auto it = std::find_if(
          hit.begin(), hit.end(), [&](const HitStage& h) {
            return h.job == job_index && h.stage == stage_index;
          });
      if (it == hit.end()) {
        hit.push_back(HitStage{job_index, stage_index, {task_id}});
      } else {
        it->stranded.push_back(task_id);
      }
    }
    running_stranded = std::move(singles);
    const bool requeue_gangs =
        options_.recovery != fault::RecoveryPolicy::kDropQueued;
    for (const HitStage& h : hit) {
      const workload::JobStage stage = graph_.stage(h.job, h.stage);
      JobRuntime& rt = job_runtime_[h.job];
      // Abort mates still running on live cores; their finish events are
      // stale the moment the gang restarts. (Mates on dead cores were
      // already cleaned up above.)
      for (std::size_t m = 0; m < stage.width; ++m) {
        const std::size_t member = stage.first_task + m;
        for (std::size_t flat = 0; flat < runtime_.size(); ++flat) {
          if (runtime_[flat].busy &&
              runtime_[flat].running.task_id == member) {
            events_.RemoveFinish(flat);
            --active_tasks_;
            HandleFinish(flat, now);
            break;
          }
        }
      }
      if (requeue_gangs && !rt.failed) {
        // Whole-gang restart: every member re-runs, so the stage counts
        // all of them again before the gang re-queues.
        rt.stage_remaining = static_cast<std::uint32_t>(stage.width);
        pending_gangs_.push_back(
            PendingGang{h.job, h.stage, now, /*requeued=*/true});
        ++job_stats_.gangs_requeued;
        job_stats_.pending_peak =
            std::max(job_stats_.pending_peak, pending_gangs_.size());
      } else {
        for (const std::size_t task_id : h.stranded) {
          MarkTaskLost(task_id, now, trace_record);
        }
      }
    }
  }

  // Running tasks lost their progress and restart from scratch — under both
  // requeue and migrate they take the requeue path (which re-enters
  // streaming admission like a fresh arrival).
  const bool recover =
      options_.recovery != fault::RecoveryPolicy::kDropQueued;
  for (const std::size_t task_id : running_stranded) {
    if (recover) {
      RecoverViaRequeue(task_id, now, trace_record);
    } else {
      MarkTaskLost(task_id, now, trace_record);
    }
  }
  switch (options_.recovery) {
    case fault::RecoveryPolicy::kMigrateQueued:
      MigrateQueued(queued_stranded, now, trace_record);
      break;
    case fault::RecoveryPolicy::kRequeueToScheduler:
      for (const std::size_t task_id : queued_stranded) {
        RecoverViaRequeue(task_id, now, trace_record);
      }
      break;
    case fault::RecoveryPolicy::kDropQueued:
      for (const std::size_t task_id : queued_stranded) {
        MarkTaskLost(task_id, now, trace_record);
      }
      break;
  }
}

void Engine::RecoverViaRequeue(std::size_t task_id, double now,
                               obs::FaultEventRecord& trace_record) {
  // Streaming admission sees a requeued task exactly like a fresh arrival —
  // it re-enters admission, it never jumps straight into the holding pen
  // (and may be re-refused under backpressure).
  const stream::AdmissionVerdict verdict = Admit(tasks_[task_id], now);
  if (verdict == stream::AdmissionVerdict::kDefer) return;  // not lost yet
  // A drop counts as an admission drop and, below, as lost.
  if (verdict == stream::AdmissionVerdict::kDrop) {
    DropAtAdmission(task_id, now);
  }
  if (verdict == stream::AdmissionVerdict::kAdmit &&
      TryRemap(tasks_[task_id], now)) {
    ++tasks_remapped_;
    ++trace_record.tasks_requeued;
    remapped_[task_id] = 1;
    obs::Bump(&obs::Counters::tasks_remapped);
    if (options_.collect_task_records) {
      records_[task_id].remapped = true;
    }
  } else {
    MarkTaskLost(task_id, now, trace_record);
  }
}

void Engine::MigrateQueued(const std::vector<std::size_t>& queued, double now,
                           obs::FaultEventRecord& trace_record) {
  // Migration order is waiting time per joule of the task's cheapest
  // mapping, most-owed first — the same priority the holding pen releases
  // by, so migration and pen release agree on who deserves the surviving
  // capacity. In streaming mode migrated tasks bypass admission: they were
  // admitted once and lost their seat through no fault of their own (the
  // mirror of the fault-requeue rule above, where a restarted task
  // re-enters admission because its work starts over).
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(queued.size());
  for (const std::size_t task_id : queued) {
    const workload::Task& task = tasks_[task_id];
    const double joules =
        stream::CheapestExpectedEnergy(*cluster_, *types_, task.type);
    order.emplace_back((now - task.arrival) / joules, task_id);
  }
  std::sort(order.begin(), order.end(),
            [](const std::pair<double, std::size_t>& a,
               const std::pair<double, std::size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (const auto& [wait_per_joule, task_id] : order) {
    if (TryRemap(tasks_[task_id], now)) {
      ++tasks_migrated_;
      ++trace_record.tasks_migrated;
      migrated_[task_id] = 1;
      obs::Bump(&obs::Counters::tasks_migrated);
      if (options_.collect_task_records) {
        records_[task_id].migrated = true;
      }
    } else {
      MarkTaskLost(task_id, now, trace_record);
    }
  }
}

void Engine::MarkTaskLost(std::size_t task_id, double now,
                          obs::FaultEventRecord& trace_record) {
  ++tasks_lost_;
  ++trace_record.tasks_lost;
  obs::Bump(&obs::Counters::tasks_lost_to_failures);
  if (options_.collect_task_records) {
    TaskRecord& record = records_[task_id];
    record.lost_to_failure = true;
    record.finish_time = now;
  }
  // A lost member dooms its whole job: no later stage can complete.
  FailJob(job_of_[task_id], now);
}

void Engine::ApplyExecFloor(std::size_t flat_core, double now) {
  CoreRuntime& core = runtime_[flat_core];
  const cluster::PStateIndex floor = injector_.pstate_floor(flat_core);
  if (core.busy) {
    const cluster::PStateIndex target = std::max(core.running.pstate, floor);
    if (target == core.running.exec_pstate) return;
    // Re-time the remaining work: wall time left scales with the ratio of
    // time multipliers between the old and new execution states. The old
    // finish event goes stale; a fresh one carries the new finish time.
    const cluster::PStateProfile& pstates =
        cluster_->NodeOf(flat_core).pstates;
    const double remaining = core.running.finish_time - now;
    const double scaled = remaining * pstates[target].time_multiplier /
                          pstates[core.running.exec_pstate].time_multiplier;
    core.running.exec_pstate = target;
    core.running.finish_time = now + scaled;
    SwitchPState(flat_core, target, now);
    events_.UpdateFinish(flat_core, core.running.finish_time,
                         core.running.task_id, next_seq_++);
  } else if (core.current_pstate < floor) {
    // Idle above the floor (possible under IdlePolicy::kStayAtLast): the
    // throttled core cannot hold a state faster than the floor.
    SwitchPState(flat_core, floor, now);
  }
}

void Engine::HandleFinish(std::size_t flat_core, double now) {
  CoreRuntime& core = runtime_[flat_core];
  core.busy = false;
  models_[flat_core].FinishRunning();
  if (options_.cancel_policy == CancelPolicy::kCancelHopelessQueued) {
    // Drop queued tasks that can no longer meet their deadlines — they are
    // certain misses, and running them would only burn budget and delay the
    // rest of the queue.
    while (!core.pending.empty() &&
           tasks_[core.pending.front().task_id].deadline < now) {
      const std::size_t cancelled_id = core.pending.front().task_id;
      core.pending.pop_front();
      models_[flat_core].DropNext();
      ++cancelled_;
      --active_tasks_;
      if (options_.collect_task_records) {
        TaskRecord& record = records_[cancelled_id];
        record.cancelled = true;
        record.finish_time = now;
      }
      FailJob(job_of_[cancelled_id], now);
    }
  }
  if (!core.pending.empty()) {
    const PendingTask next = core.pending.front();
    core.pending.pop_front();
    const double start =
        StartOnCore(flat_core, next.task_id, next.duration, next.pstate, now);
    models_[flat_core].StartNext(start);
    return;
  }
  // Batch mode sweeps before the core idles: the online meter sums power
  // incrementally, so an idle switch undone by a pooled task starting at the
  // same instant would still change the energy bits. Every other free core
  // already idled at its own finish.
  if (batch_ != nullptr) SweepBatchPool(now);
  if (core.busy) return;
  if (options_.idle_policy == IdlePolicy::kDeepestPState) {
    SwitchPState(flat_core, idle_pstate_, now);
  } else if (options_.idle_policy == IdlePolicy::kPowerGated) {
    SwitchPState(flat_core, idle_pstate_, now, 0.0);
  }
}

void Engine::SweepBatchPool(double now) {
  if (options_.cancel_policy == CancelPolicy::kCancelHopelessQueued) {
    std::erase_if(batch_pool_, [&](const workload::Task& task) {
      if (task.deadline >= now) return false;
      ++cancelled_;
      if (options_.collect_task_records) {
        records_[task.id].cancelled = true;
        records_[task.id].finish_time = now;
      }
      FailJob(job_of_[task.id], now);
      return true;
    });
  }
  if (batch_pool_.empty()) return;
  std::vector<bool> idle(runtime_.size());
  for (std::size_t flat = 0; flat < runtime_.size(); ++flat) {
    idle[flat] = !runtime_[flat].busy;
  }
  const std::vector<batch::BatchAssignment> assignments =
      batch_->MapEvent(batch_pool_, idle, now, active_tasks_);
  std::vector<std::size_t> mapped;
  mapped.reserve(assignments.size());
  for (const batch::BatchAssignment& assignment : assignments) {
    ECDRA_ASSERT(!runtime_[assignment.candidate.assignment.flat_core].busy,
                 "batch heuristic assigned two tasks to one core");
    PlaceOnCore(assignment.candidate, batch_pool_[assignment.pending_index],
                now);
    mapped.push_back(assignment.pending_index);
  }
  // Descending index order keeps the remaining indices valid.
  std::sort(mapped.begin(), mapped.end(), std::greater<>());
  for (const std::size_t index : mapped) {
    batch_pool_.erase(batch_pool_.begin() +
                      static_cast<std::ptrdiff_t>(index));
  }
}

double Engine::StartOnCore(std::size_t flat_core, std::size_t task_id,
                           double duration, cluster::PStateIndex pstate,
                           double now) {
  // Fault extension: an active throttle floor caps the execution state; the
  // sampled duration stretches by the time-multiplier ratio. Unthrottled
  // cores (floor 0) run at the assigned state.
  const cluster::PStateIndex exec_pstate =
      std::max(pstate, injector_.pstate_floor(flat_core));
  if (exec_pstate != pstate) {
    const cluster::PStateProfile& pstates =
        cluster_->NodeOf(flat_core).pstates;
    duration *= pstates[exec_pstate].time_multiplier /
                pstates[pstate].time_multiplier;
  }
  // Optional DVFS switching delay: the core is occupied (at the destination
  // state's power) before execution begins.
  double start = now;
  if (options_.pstate_transition_latency > 0.0 &&
      runtime_[flat_core].current_pstate != exec_pstate) {
    start += options_.pstate_transition_latency;
  }
  double core_watts = -1.0;
  if (options_.power_cov > 0.0) {
    // Stochastic-power extension: this execution draws a sampled power
    // around the state's average.
    util::RngStream stream = rng_.Substream("power-u", task_id);
    core_watts = stream.Gamma(
        1.0 / (options_.power_cov * options_.power_cov),
        cluster_->NodeOf(flat_core).pstates[exec_pstate].power_watts *
            options_.power_cov * options_.power_cov);
  }
  SwitchPState(flat_core, exec_pstate, now, core_watts);
  parked_[flat_core] = 0;
  CoreRuntime& core = runtime_[flat_core];
  core.busy = true;
  core.running = RunningTask{task_id, start + duration, pstate, exec_pstate};
  events_.Push(Event{start + duration, 0, flat_core, next_seq_++, task_id});
  if (options_.collect_task_records) {
    records_[task_id].start_time = start;
  }
  return start;
}

void Engine::SwitchPState(std::size_t flat_core, cluster::PStateIndex pstate,
                          double now, double core_watts) {
  CoreRuntime& core = runtime_[flat_core];
  const bool same_power =
      core_watts < 0.0
          ? core.log.back().power_watts < 0.0
          : core.log.back().power_watts == core_watts;
  if (core.current_pstate == pstate && same_power) return;
  obs::Bump(&obs::Counters::pstate_switches);
  core.current_pstate = pstate;
  core.log.push_back({now, pstate, core_watts});
  if (core_watts >= 0.0) {
    meter_.SetPStateWithPower(flat_core, pstate, core_watts);
  } else {
    meter_.SetPState(flat_core, pstate);
  }
}

void Engine::AdvanceEnergy(double to_time) {
  if (stream_enabled_) {
    // Streaming mode has no fixed zeta_max cutoff: the account nets the
    // interval's accrual against its exact Eq. 1/2 draw (clamped net flow,
    // see stream/energy_account.hpp) and updates the emergency hysteresis
    // at the interval end. A flip re-derives every core's floor.
    const double before = meter_.consumed();
    meter_.AdvanceTo(to_time);
    account_.AdvanceTo(to_time, meter_.consumed() - before);
    if (account_.emergency() != emergency_active_) {
      emergency_active_ = account_.emergency();
      for (std::size_t flat = 0; flat < runtime_.size(); ++flat) {
        RefreshAvailability(flat);
      }
    }
    return;
  }
  if (!exhausted_at_) {
    exhausted_at_ =
        meter_.BudgetCrossingTime(options_.energy_budget, to_time);
  }
  meter_.AdvanceTo(to_time);
  if (validate::TrialValidator* validator = validate::ActiveValidator()) {
    // Cheap invariant: until the budget-crossing cutoff is pinned, the
    // cumulative draw must not exceed zeta_max — a breach means the meter
    // integrated past the budget without recording the crossing instant,
    // and every "within budget" completion after it is suspect.
    validator->CountChecks();
    const double budget = options_.energy_budget;
    if (!exhausted_at_ && meter_.consumed() > budget * (1.0 + 1e-9)) {
      std::ostringstream os;
      os << "consumed " << meter_.consumed() << " > zeta_max " << budget
         << " with no budget-crossing cutoff recorded";
      validator->Fail("energy-budget-cutoff", to_time, os.str());
    }
  }
}

void Engine::RefreshAvailability(std::size_t flat_core) {
  core::CoreAvailability availability{
      injector_.available(flat_core),
      std::max(injector_.pstate_floor(flat_core), governor_floor_[flat_core])};
  if (emergency_active_) {
    // Emergency pin: future mappings are floored to the deepest P-state;
    // running tasks keep their states (the governor-cap precedent).
    availability.pstate_floor =
        std::max(availability.pstate_floor, idle_pstate_);
  }
  availability_[flat_core] = availability;
}

void Engine::InvokeGovernor(double now) {
  governor_now_ = now;
  for (std::size_t flat = 0; flat < runtime_.size(); ++flat) {
    core_views_[flat] = governor::CoreView{
        runtime_[flat].busy, runtime_[flat].current_pstate,
        parked_[flat] != 0, models_[flat].queue_length()};
  }
  obs::Bump(&obs::Counters::governor_invocations);
  governor::GovernorObservation observation;
  observation.now = now;
  observation.consumed = meter_.consumed();
  observation.budget = options_.energy_budget;
  observation.burn_watts = meter_.total_power();
  observation.estimated_remaining = scheduler_->estimator().remaining();
  observation.horizon = horizon_;
  observation.tasks_seen = scheduler_->tasks_seen();
  observation.window_size = tasks_.size();
  observation.cluster = cluster_;
  observation.queues = models_;
  observation.cores = core_views_;
  observation.idle_pstate = idle_pstate_;
  observation.energy_price = options_.econ.energy_price;
  observation.realized_revenue = profit_.revenue();
  governor_->Govern(observation, *this);
  if (validate::TrialValidator* validator = validate::ActiveValidator()) {
    // Cheap invariant: a parked core must be idle — a busy one would mean a
    // park slipped past the host's refusal and gated a running task.
    validator->CountChecks();
    for (std::size_t flat = 0; flat < runtime_.size(); ++flat) {
      if (parked_[flat] != 0 && runtime_[flat].busy) {
        std::ostringstream os;
        os << "governor parked busy core " << flat;
        validator->Fail("governor-parked-busy", now, os.str());
      }
    }
  }
}

void Engine::SetPStateFloor(std::size_t flat_core,
                            cluster::PStateIndex floor) {
  ECDRA_REQUIRE(flat_core < runtime_.size(),
                "governor P-state floor: core index out of range");
  ECDRA_REQUIRE(floor < cluster::kNumPStates,
                "governor P-state floor: P-state index out of range");
  if (governor_floor_[flat_core] == floor) return;
  governor_floor_[flat_core] = floor;
  RefreshAvailability(flat_core);
  obs::Bump(&obs::Counters::governor_pstate_caps);
  if (options_.trace_sink != nullptr) {
    obs::GovernorActionRecord record;
    record.trial = options_.trial_index;
    record.time = governor_now_;
    record.governor = std::string(governor_->name());
    record.action = "cap";
    record.flat_core = flat_core;
    record.pstate_floor = floor;
    options_.trace_sink->Record(record);
  }
}

bool Engine::ParkIdleCore(std::size_t flat_core) {
  ECDRA_REQUIRE(flat_core < runtime_.size(),
                "governor park: core index out of range");
  CoreRuntime& core = runtime_[flat_core];
  if (core.busy || parked_[flat_core] != 0) return false;
  if (!injector_.available(flat_core)) return false;
  // Already drawing nothing (IdlePolicy::kPowerGated, or a dead core):
  // parking would be a no-op transition the nu list should not record.
  if (core.log.back().power_watts == 0.0) return false;
  SwitchPState(flat_core, idle_pstate_, governor_now_, 0.0);
  parked_[flat_core] = 1;
  obs::Bump(&obs::Counters::governor_cores_parked);
  if (options_.trace_sink != nullptr) {
    obs::GovernorActionRecord record;
    record.trial = options_.trial_index;
    record.time = governor_now_;
    record.governor = std::string(governor_->name());
    record.action = "park";
    record.flat_core = flat_core;
    options_.trace_sink->Record(record);
  }
  return true;
}

void Engine::SetFairShareScale(double scale) {
  ECDRA_REQUIRE(std::isfinite(scale) && scale > 0.0,
                "governor fair-share scale must be finite and positive");
  if (scale == fair_share_scale_) return;
  fair_share_scale_ = scale;
  PushFairShare();
  obs::Bump(&obs::Counters::governor_allowance_changes);
  if (options_.trace_sink != nullptr) {
    obs::GovernorActionRecord record;
    record.trial = options_.trial_index;
    record.time = governor_now_;
    record.governor = std::string(governor_->name());
    record.action = "allowance";
    record.scale = scale;
    options_.trace_sink->Record(record);
  }
}

void Engine::PushFairShare() {
  // The scheduler receives the governor's requested scale times (while
  // degraded) the surviving-core fraction: a cluster that lost a quarter of
  // its cores cannot promise the same per-task energy allowance. The floor
  // of one surviving core keeps the scale positive even under a total
  // outage (nothing can map then anyway).
  double effective = fair_share_scale_;
  if (degraded_.active()) {
    const double total = static_cast<double>(runtime_.size());
    const double surviving =
        total - static_cast<double>(injector_.unavailable_cores());
    effective *= std::max(surviving, 1.0) / total;
  }
  if (effective == pushed_share_scale_) return;
  pushed_share_scale_ = effective;
  scheduler_->SetFairShareScale(effective);
}

void Engine::UpdateDegraded(double now) {
  const double lost = static_cast<double>(injector_.unavailable_cores()) /
                      static_cast<double>(runtime_.size());
  degraded_.Update(now, lost);
  // Re-push unconditionally: even without a mode flip, a further loss or a
  // partial repair moves the surviving fraction the fair share scales by.
  PushFairShare();
}

class Engine::AdmissionScan final : public stream::RhoScan {
 public:
  AdmissionScan(const Engine& engine, const workload::Task& task, double now)
      : engine_(engine), task_(task), now_(now) {}

  [[nodiscard]] bool Reaches(double threshold, double scale) override {
    const bool answer = Scan(threshold, scale);
    if (validate::TrialValidator* validator = validate::DeepValidator()) {
      Audit(*validator, threshold, scale, answer);
    }
    return answer;
  }

 private:
  /// What one core showed for one question.
  enum class Verdict {
    /// rho was computed and best_ raised by it.
    kVisited,
    /// The moment bound shows scale * rho >= threshold.
    kReaches,
    /// The moment bound shows scale * rho < threshold.
    kBelow,
  };

  /// The question threshold / scale on rho, widened by a relative margin on
  /// each side: rho >= hi makes the rounded scale * rho reach the
  /// threshold, and rho < lo keeps it below. `bounded` is false when the
  /// ratio or the threshold is not a normal double, where relative
  /// rounding bounds fail; such questions compute rho.
  struct Bracket {
    double lo = 0.0;
    double hi = 0.0;
    bool bounded = false;
  };

  static Bracket MakeBracket(double threshold, double scale) {
    // The ratio, the bracket and the policy's product scale * rho each
    // round by at most 2^-53 relative; 2^-50 covers the three.
    constexpr double kMargin = 0x1p-50;
    const double ratio = threshold / scale;
    if (!std::isnormal(threshold) || !std::isnormal(ratio)) return {};
    return Bracket{ratio * (1.0 - kMargin), ratio * (1.0 + kMargin), true};
  }

  /// scale * best_rho >= threshold. scale * rho is monotone in rho and the
  /// max only grows, so a yes from the running max is the full max's yes.
  /// rho is clamped to [0, 1]: past an exact 1.0 no core can raise the max.
  /// Unvisited cores come first, idle ones before busy ones; then the busy
  /// cores an earlier question's bound showed below a threshold above this
  /// one's.
  [[nodiscard]] bool Scan(double threshold, double scale) {
    const auto settled = [&] {
      return scale * best_ >= threshold || best_ == 1.0;
    };
    const Bracket bracket = MakeBracket(threshold, scale);
    while (!settled()) {
      const std::optional<std::size_t> flat = NextCore();
      if (!flat) break;
      const Verdict verdict = Check(*flat, bracket);
      // A core that reaches stays next: its rho is not in best_, so a
      // later question must check it again.
      if (verdict == Verdict::kReaches) return true;
      if (verdict == Verdict::kBelow) below_.push_back({*flat, bracket.lo});
      ++next_;
    }
    for (std::size_t i = 0; i < below_.size() && !settled();) {
      auto& [flat, ceiling] = below_[i];
      if (bracket.bounded && ceiling <= bracket.lo) {
        ++i;  // rho < ceiling <= lo: below this question too
        continue;
      }
      switch (Check(flat, bracket)) {
        case Verdict::kReaches:
          return true;
        case Verdict::kBelow:
          ceiling = bracket.lo;
          ++i;
          break;
        case Verdict::kVisited:
          below_.erase(below_.begin() + static_cast<std::ptrdiff_t>(i));
          break;
      }
    }
    return scale * best_ >= threshold;
  }

  /// The next available core in scan order (idle cores, then busy ones),
  /// left at next_; nullopt once every core has been passed.
  [[nodiscard]] std::optional<std::size_t> NextCore() {
    const std::size_t cores = engine_.models_.size();
    while (idle_pass_ || next_ < cores) {
      if (next_ == cores) {
        idle_pass_ = false;
        next_ = 0;
        continue;
      }
      if (engine_.models_[next_].idle() == idle_pass_ &&
          engine_.injector_.available(next_)) {
        return next_;
      }
      ++next_;
    }
    return std::nullopt;
  }

  /// Decides a busy core from its completion time's mean and variance bound
  /// (robustness::RhoBelowBound, as the rob filter does) when the bracket
  /// allows; otherwise computes its rho into best_. Idle cores are always
  /// computed: their ready pmf is Delta(now), so rho is one sweep.
  [[nodiscard]] Verdict Check(std::size_t flat, const Bracket& bracket) {
    if (bracket.bounded && !engine_.models_[flat].idle()) {
      const robustness::Moments ready = engine_.models_[flat].ReadyMoments(now_);
      const std::size_t node = engine_.cluster_->NodeIndexOf(flat);
      const cluster::PStateIndex floor =
          engine_.availability_[flat].pstate_floor;
      const double mean =
          ready.mean + engine_.types_->MeanRow(task_.type, node)[floor];
      const double variance =
          ready.variance + engine_.types_->VarianceRow(task_.type, node)[floor];
      const std::optional<bool> below_hi = robustness::RhoBelowBound(
          mean, variance, task_.deadline, bracket.hi);
      if (below_hi && !*below_hi) return Verdict::kReaches;
      const std::optional<bool> below_lo = robustness::RhoBelowBound(
          mean, variance, task_.deadline, bracket.lo);
      if (below_lo && *below_lo) return Verdict::kBelow;
    }
    best_ = std::max(best_, Rho(flat));
    return Verdict::kVisited;
  }

  /// The same rho(i,j,k,pi,t,z) primitive the robustness filter computes,
  /// evaluated at the core's current P-state floor (emergency, throttle, or
  /// governor cap) — the fastest state a mapping could actually get.
  [[nodiscard]] double Rho(std::size_t flat) const {
    const auto& exec = engine_.types_->ExecPmf(
        task_.type, engine_.cluster_->NodeIndexOf(flat),
        engine_.availability_[flat].pstate_floor);
    return robustness::OnTimeProbability(engine_.models_[flat], now_, exec,
                                         task_.deadline);
  }

  void Audit(validate::TrialValidator& validator, double threshold,
             double scale, bool answer) {
    if (!full_max_) {
      double full = 0.0;
      for (std::size_t flat = 0; flat < engine_.models_.size(); ++flat) {
        if (engine_.injector_.available(flat)) full = std::max(full, Rho(flat));
      }
      full_max_ = full;
    }
    validator.CountChecks();
    if (answer == (scale * *full_max_ >= threshold)) return;
    std::ostringstream os;
    os << "task " << task_.id << ": Reaches(" << threshold << ", " << scale
       << ") answered " << answer << " but best_rho is " << *full_max_;
    validator.Fail("admission-rho-oracle", now_, os.str());
  }

  const Engine& engine_;
  const workload::Task& task_;
  double now_;
  double best_ = 0.0;
  bool idle_pass_ = true;
  std::size_t next_ = 0;
  /// Busy cores passed without computing rho, each with a ceiling the bound
  /// showed rho below.
  std::vector<std::pair<std::size_t, double>> below_;
  std::optional<double> full_max_;
};

stream::AdmissionVerdict Engine::DecideAdmission(const workload::Task& task,
                                                 double now) {
  AdmissionScan scan(*this, task, now);
  stream::AdmissionView view;
  view.now = now;
  view.arrival = task.arrival;
  view.deadline = task.deadline;
  view.best_rho = stream::RhoOracle(scan);
  view.available_energy = account_.available();
  view.emergency = account_.emergency();
  view.degraded = degraded_.active();
  view.pen_depth = pen_.size();
  // Econ signals for value-aware policies: a trivial model gives value and
  // price 0, which makes every econ-aware rule vacuous.
  view.value = task.value;
  view.cheapest_energy =
      stream::CheapestExpectedEnergy(*cluster_, *types_, task.type);
  view.energy_price = options_.econ.energy_price;
  return admission_->Decide(view);
}

stream::AdmissionVerdict Engine::Admit(const workload::Task& task,
                                       double now) {
  if (!admission_active_) return stream::AdmissionVerdict::kAdmit;
  const stream::AdmissionVerdict verdict = DecideAdmission(task, now);
  if (verdict == stream::AdmissionVerdict::kDefer) DeferToPen(task);
  if (verdict != stream::AdmissionVerdict::kAdmitForced) return verdict;
  ++stream_stats_.forced_admissions;
  return stream::AdmissionVerdict::kAdmit;
}

void Engine::DeferToPen(const workload::Task& task) {
  pen_.Add(stream::PennedTask{
      task.id, task.arrival, task.deadline,
      stream::CheapestExpectedEnergy(*cluster_, *types_, task.type)});
  ++window_.deferred;
  ++stream_stats_.deferred;
}

void Engine::DropAtAdmission(std::size_t task_id, double now) {
  ++window_.dropped;
  ++stream_stats_.admission_dropped;
  if (options_.collect_task_records) {
    records_[task_id].finish_time = now;
  }
}

void Engine::ReleasePen(double now, bool full_scan) {
  if (pen_.empty()) return;
  const std::vector<stream::PennedTask> ordered = pen_.InPriorityOrder(now);
  for (const stream::PennedTask& penned : ordered) {
    const workload::Task& task = tasks_[penned.task_id];
    if (task.deadline <= now) {
      // Expired in the pen: a certain miss not worth a mapping attempt.
      pen_.Remove(penned.task_id);
      DropAtAdmission(penned.task_id, now);
      FailJob(job_of_[penned.task_id], now);
      continue;
    }
    const stream::AdmissionVerdict verdict = DecideAdmission(task, now);
    if (verdict == stream::AdmissionVerdict::kDefer) {
      // The most-owed task is still refused; the rest wait with it.
      break;
    }
    pen_.Remove(penned.task_id);
    if (verdict == stream::AdmissionVerdict::kDrop) {
      DropAtAdmission(penned.task_id, now);
      FailJob(job_of_[penned.task_id], now);
      continue;
    }
    if (verdict == stream::AdmissionVerdict::kAdmitForced) {
      ++stream_stats_.forced_admissions;
    }
    if (ReleasePenned(task, now)) {
      ++stream_stats_.released;
      ++window_.released;
    } else {
      // The mapping pipeline found nothing feasible for it either.
      DropAtAdmission(penned.task_id, now);
      FailJob(job_of_[penned.task_id], now);
    }
    // A head-only scan (completion-triggered) releases at most one task.
    if (!full_scan) break;
  }
}

void Engine::DrainPen(double now) {
  for (const stream::PennedTask& penned : pen_.InPriorityOrder(now)) {
    pen_.Remove(penned.task_id);
    const workload::Task& task = tasks_[penned.task_id];
    if (task.deadline > now && ReleasePenned(task, now)) {
      ++stream_stats_.released;
      ++stream_stats_.forced_admissions;
      ++window_.released;
    } else {
      DropAtAdmission(penned.task_id, now);
      FailJob(job_of_[penned.task_id], now);
    }
  }
}

void Engine::CloseWindow(double now) {
  const double joules = meter_.consumed() - window_.joules_open;
  const std::uint64_t resolved =
      window_.on_time + window_.late + window_.over_energy + window_.dropped;
  if (options_.trace_sink != nullptr) {
    obs::StreamWindowRecord record;
    record.trial = options_.trial_index;
    record.index = window_.index;
    record.start = window_.start;
    record.end = now;
    record.arrivals = window_.arrivals;
    record.admitted = window_.admitted;
    record.deferred = window_.deferred;
    record.dropped = window_.dropped;
    record.released = window_.released;
    record.on_time = window_.on_time;
    record.late = window_.late;
    record.over_energy = window_.over_energy;
    record.joules = joules;
    record.on_time_per_joule =
        joules > 0.0 ? static_cast<double>(window_.on_time) / joules : 0.0;
    record.missed_rate =
        resolved > 0 ? static_cast<double>(resolved - window_.on_time) /
                           static_cast<double>(resolved)
                     : 0.0;
    record.available = account_.available();
    record.queue_depth = active_tasks_;
    record.pen_depth = pen_.size();
    record.emergency = account_.emergency();
    options_.trace_sink->Record(record);
  }
  ++stream_stats_.windows;
  window_ = WindowAccumulator{};
  window_.index = stream_stats_.windows;
  window_.start = now;
  window_.joules_open = meter_.consumed();
}

double Engine::SampleActualDuration(const workload::Task& task,
                                    std::size_t node,
                                    cluster::PStateIndex pstate) {
  // One substream per task id: the underlying uniform draw is shared across
  // heuristic variants (common random numbers), so variants differ only
  // through their decisions, not through sampling noise. The draw is that
  // substream's first uniform, drawn for every task up front.
  ECDRA_ASSERT(task.id < exec_u_.size(), "task id out of range");
  return types_->ExecPmf(task.type, node, pstate).Sample(exec_u_[task.id]);
}

void Engine::HandleJobArrival(std::size_t job_index, double now) {
  const std::size_t first = graph_.first_task(job_index);
  const std::size_t total = graph_.total_tasks(job_index);
  window_.arrivals += total;
  // Admission rules once for the whole job, on its first task as the
  // representative (members share arrival, deadline, and type layout per
  // stage). A refused job consumes every member's arrival-window slot up
  // front (prepaid) — later stage releases re-enter through the remap
  // pipeline and never touch the window again.
  const stream::AdmissionVerdict verdict = Admit(tasks_[first], now);
  if (verdict != stream::AdmissionVerdict::kAdmit) {
    for (std::size_t i = 0; i < total; ++i) scheduler_->SkipTask();
    job_runtime_[job_index].prepaid = true;
    if (verdict == stream::AdmissionVerdict::kDrop) {
      for (std::size_t id = first; id < first + total; ++id) {
        DropAtAdmission(id, now);
      }
      FailJob(job_index, now);
    }
    return;
  }
  window_.admitted += total;
  ReleaseStage(job_index, 0, now, /*requeued=*/false);
}

void Engine::ReleaseStage(std::size_t job_index, std::size_t stage_index,
                          double now, bool requeued) {
  JobRuntime& rt = job_runtime_[job_index];
  ECDRA_ASSERT(rt.next_stage == stage_index, "stage released out of order");
  const workload::JobStage stage = graph_.stage(job_index, stage_index);
  rt.next_stage = static_cast<std::uint32_t>(stage_index + 1);
  rt.stage_remaining = static_cast<std::uint32_t>(stage.width);
  if (batch_ != nullptr) {
    // Batch mode refuses jobs of more than one task, so the stage is one
    // task; it joins the pool, which is swept against the idle cores now.
    batch_pool_.push_back(tasks_[stage.first_task]);
    SweepBatchPool(now);
    return;
  }
  // Prepaid jobs (streaming defer/drop consumed every slot at admission)
  // re-enter through the remap pipeline, exactly like a pen release.
  const bool remap = requeued || rt.prepaid;
  if (stage.width == 1 || serializes_) {
    // Width-1 stage, or the "serial" ablation placement: members take the
    // ordinary per-task pipeline one by one. A discarded member fails the
    // job; the rest still map (they were released and consume their slots).
    for (std::size_t m = 0; m < stage.width; ++m) {
      const workload::Task& member = tasks_[stage.first_task + m];
      bool placed = false;
      if (remap) {
        placed = TryRemap(member, now);
      } else {
        const std::optional<core::Candidate> chosen =
            scheduler_->MapTask(member, now, models_, availability_);
        if (chosen) {
          PlaceOnCore(*chosen, member, now);
          placed = true;
        }
      }
      if (!placed) FailJob(job_index, now);
    }
    return;
  }
  pending_gangs_.push_back(
      PendingGang{job_index, stage_index, now, requeued});
  job_stats_.pending_peak =
      std::max(job_stats_.pending_peak, pending_gangs_.size());
  TryPlacePendingGangs(now);
}

void Engine::TryPlacePendingGangs(double now) {
  if (pending_gangs_.empty()) return;
  // Reservations live for one sweep: a senior (FIFO-older) still-waiting
  // gang pins its feasible cores so junior gangs in the same sweep cannot
  // backfill them; per-task work (width-1 stages, recovery remaps) still
  // queues freely on busy cores and never consults the reservations.
  std::fill(reserved_.begin(), reserved_.end(), std::uint8_t{0});
  std::deque<PendingGang> keep;
  // A gang with no free core waits with no feasible cores: that is what
  // MapGang returns for an empty candidate set, so the attempt is skipped.
  // Nothing in a sweep frees a core (commits occupy cores, reservations only
  // grow, abandons touch no core), so once one gang finds none the sweep
  // stops scanning, but still checks every gang for abandonment in order.
  const auto flats = std::views::iota(std::size_t{0}, runtime_.size());
  const auto is_free = [this](std::size_t flat) { return GangCoreFree(flat); };
  bool any_free = true;
  while (!pending_gangs_.empty()) {
    PendingGang gang = pending_gangs_.front();
    pending_gangs_.pop_front();
    if (job_runtime_[gang.job].failed ||
        tasks_[graph_.first_task(gang.job)].deadline < now ||
        graph_.stage(gang.job, gang.stage).width > runtime_.size()) {
      AbandonGang(gang, now);
      continue;
    }
    any_free = any_free && std::ranges::any_of(flats, is_free);
    const core::GangOutcome outcome =
        any_free ? AttemptGang(gang, now) : core::GangOutcome{};
    if (outcome.status == core::GangStatus::kPlaced) {
      CommitGang(gang, outcome, now);
      continue;
    }
    if (outcome.status == core::GangStatus::kInfeasible) {
      AbandonGang(gang, now);
      continue;
    }
    if (!gang.waited) {
      gang.waited = true;
      ++job_stats_.gang_waits;
    }
    for (const std::size_t flat : outcome.feasible_cores) {
      reserved_[flat] = 1;
    }
    keep.push_back(gang);
  }
  pending_gangs_ = std::move(keep);
}

bool Engine::GangCoreFree(std::size_t flat) const {
  return !runtime_[flat].busy && reserved_[flat] == 0 &&
         availability_[flat].available;
}

core::GangOutcome Engine::AttemptGang(const PendingGang& gang, double now) {
  const workload::JobStage stage = graph_.stage(gang.job, gang.stage);
  gang_availability_ = availability_;
  for (std::size_t flat = 0; flat < runtime_.size(); ++flat) {
    gang_availability_[flat].available = GangCoreFree(flat);
  }
  const std::span<const workload::Task> members =
      std::span<const workload::Task>(tasks_).subspan(stage.first_task,
                                                      stage.width);
  const std::optional<pmf::Pmf> tail = ChainTailPmf(gang.job, gang.stage);
  return scheduler_->MapGang(
      members, now, models_, gang_availability_, tail ? &*tail : nullptr,
      gang.requeued || job_runtime_[gang.job].prepaid);
}

void Engine::CommitGang(const PendingGang& gang,
                        const core::GangOutcome& outcome, double now) {
  const workload::JobStage stage = graph_.stage(gang.job, gang.stage);
  for (std::size_t m = 0; m < stage.width; ++m) {
    const workload::Task& member = tasks_[stage.first_task + m];
    PlaceOnCore(outcome.members[m], member, now);
    if (gang.requeued) {
      ++tasks_remapped_;
      obs::Bump(&obs::Counters::tasks_remapped);
      remapped_[member.id] = 1;
      if (options_.collect_task_records) records_[member.id].remapped = true;
    }
  }
  ++job_stats_.gangs_placed;
  job_stats_.gang_wait_seconds += now - gang.released_at;
}

void Engine::AbandonGang(const PendingGang& gang, double now) {
  ++job_stats_.gangs_abandoned;
  const workload::JobStage stage = graph_.stage(gang.job, gang.stage);
  if (gang.requeued) {
    // A fault pulled the gang back and no placement ever stuck: every
    // member is lost to the failure (MarkTaskLost fails the job).
    obs::FaultEventRecord scratch;
    for (std::size_t m = 0; m < stage.width; ++m) {
      MarkTaskLost(stage.first_task + m, now, scratch);
    }
    return;
  }
  if (job_runtime_[gang.job].prepaid) {
    for (std::size_t m = 0; m < stage.width; ++m) {
      DropAtAdmission(stage.first_task + m, now);
    }
  } else {
    // The stage was released (FailJob below only discards *unreleased*
    // stages) but never mapped: its members consume their window slots as
    // discards here.
    scheduler_->DiscardTasks(stage.width);
  }
  FailJob(gang.job, now);
}

void Engine::DrainGangs(double now) {
  TryPlacePendingGangs(now);
  if (active_tasks_ > 0) return;
  while (!pending_gangs_.empty()) {
    const PendingGang gang = pending_gangs_.front();
    pending_gangs_.pop_front();
    AbandonGang(gang, now);
  }
}

void Engine::FailJob(std::size_t job_index, double now) {
  (void)now;
  JobRuntime& rt = job_runtime_[job_index];
  if (rt.failed) return;
  rt.failed = true;
  if (!rt.counted) {
    rt.counted = true;
    ++job_stats_.jobs_failed;
  }
  if (rt.prepaid) return;
  std::size_t unreleased = 0;
  for (std::size_t s = rt.next_stage; s < graph_.num_stages(job_index); ++s) {
    unreleased += graph_.stage(job_index, s).width;
  }
  if (unreleased > 0) scheduler_->DiscardTasks(unreleased);
}

void Engine::OnMemberFinished(std::size_t task_id, bool ok, double now) {
  const std::size_t job_index = job_of_[task_id];
  JobRuntime& rt = job_runtime_[job_index];
  ECDRA_ASSERT(rt.stage_remaining > 0,
               "job member finished outside its released stage");
  if (--rt.stage_remaining > 0) return;
  if (rt.next_stage < graph_.num_stages(job_index)) {
    if (!rt.failed) {
      ReleaseStage(job_index, rt.next_stage, now, /*requeued=*/false);
    }
    return;
  }
  // The job's last finisher settles the per-job verdict: members share the
  // deadline and priority, so the last one on time implies all were (and
  // budget exhaustion is monotone, so within-energy carries over too).
  if (rt.counted) return;
  rt.counted = true;
  if (ok && !rt.failed) {
    ++job_stats_.jobs_on_time;
    weighted_jobs_completed_ += tasks_[task_id].priority;
  } else {
    ++job_stats_.jobs_late;
  }
}

std::optional<pmf::Pmf> Engine::ChainTailPmf(std::size_t job_index,
                                             std::size_t stage_index) const {
  const std::size_t stages = graph_.num_stages(job_index);
  if (stage_index + 1 >= stages) return std::nullopt;
  // Optimistic remaining-chain completion pmf: per later stage, the fastest
  // node's exec pmf at the fastest P-state, max-folded across the stage's
  // siblings, convolved along the chain. Optimism is deliberate — the joint
  // robustness check may only *remove* gangs the paper's per-task filter
  // would have accepted for cause, never reject on pessimistic guesses
  // about unmade placement decisions.
  std::optional<pmf::Pmf> tail;
  for (std::size_t s = stage_index + 1; s < stages; ++s) {
    const workload::JobStage stage = graph_.stage(job_index, s);
    const std::size_t type = tasks_[stage.first_task].type;
    std::size_t best_node = 0;
    double best_mean = types_->MeanExec(type, 0, 0);
    for (std::size_t node = 1; node < cluster_->num_nodes(); ++node) {
      const double mean = types_->MeanExec(type, node, 0);
      if (mean < best_mean) {
        best_mean = mean;
        best_node = node;
      }
    }
    pmf::Pmf stage_pmf = types_->ExecPmf(type, best_node, 0);
    for (std::size_t w = 1; w < stage.width; ++w) {
      pmf::MaxInto(stage_pmf, types_->ExecPmf(type, best_node, 0),
                   pmf::Pmf::kDefaultMaxImpulses, stage_pmf);
    }
    if (!tail) {
      tail.emplace(std::move(stage_pmf));
    } else {
      pmf::ConvolveInto(*tail, stage_pmf, pmf::Pmf::kDefaultMaxImpulses,
                        *tail);
    }
  }
  return tail;
}

bool Engine::ReleasePenned(const workload::Task& task, double now) {
  const std::size_t job_index = job_of_[task.id];
  JobRuntime& rt = job_runtime_[job_index];
  if (rt.failed) return false;
  if (rt.next_stage == 0) {
    // The penned id is a deferred job's representative: the whole job
    // starts now, stage 0 first. A gang stage counts as released the
    // moment it joins the pending queue.
    ReleaseStage(job_index, 0, now, /*requeued=*/false);
    return !rt.failed;
  }
  // A mid-flight width-1 member the fault-recovery path deferred.
  if (!TryRemap(task, now)) {
    FailJob(job_index, now);
    return false;
  }
  return true;
}

}  // namespace ecdra::sim
