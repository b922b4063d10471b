// Job-level scheduling: BuildJobGraph encoding validation, generator job
// shapes, and the engine's gang semantics — all-or-nothing simultaneous
// starts, map->reduce stage precedence with per-job deadline accounting,
// reservations against junior gangs, whole-gang requeue after a domain
// outage, and the demotion guarantee (an all-degenerate job workload takes
// the exact task-level event path). Counter-exact tests pin the sweep's
// cost: an attempt that cannot place computes no member rho, and an
// attempt with no free core runs no pipeline at all.
#include "workload/job.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/factory.hpp"
#include "core/filter.hpp"
#include "fault/fault_model.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "robustness/core_queue_model.hpp"
#include "sim/engine.hpp"
#include "test_support.hpp"
#include "workload/workload_generator.hpp"

namespace ecdra::sim {
namespace {

using workload::kSelfJob;
using workload::Task;

/// Deterministic single-type table (delta pmfs): execution time on node n
/// at P-state s is base[n] * time_multiplier(s) exactly.
workload::TaskTypeTable DeltaTable(const cluster::Cluster& cluster,
                                   const std::vector<double>& base) {
  std::vector<pmf::Pmf> pmfs;
  for (std::size_t node = 0; node < cluster.num_nodes(); ++node) {
    for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
      pmfs.push_back(pmf::Pmf::Delta(
          base[node] * cluster.node(node).pstates[s].time_multiplier));
    }
  }
  return workload::TaskTypeTable(1, cluster.num_nodes(), std::move(pmfs));
}

/// A width-`width` stage-`stage` slab of tasks for job `job`, appended with
/// sequential ids.
void AppendStage(std::vector<Task>& tasks, std::size_t job, std::size_t stage,
                 std::size_t width, double arrival, double deadline) {
  for (std::size_t i = 0; i < width; ++i) {
    tasks.push_back(Task{.id = tasks.size(),
                         .type = 0,
                         .arrival = arrival,
                         .deadline = deadline,
                         .priority = 1.0,
                         .job = job,
                         .stage = stage});
  }
}

/// Keeps every decision record the engine emits.
class CapturingSink final : public obs::TraceSink {
 public:
  void Record(const obs::MappingDecisionRecord& decision) override {
    decisions.push_back(decision);
  }
  void Record(const obs::EnergySnapshotRecord& snapshot) override {
    (void)snapshot;
  }

  std::vector<obs::MappingDecisionRecord> decisions;
};

/// Pass-through filter that counts how often a pipeline runs it.
class CountingFilter final : public core::Filter {
 public:
  explicit CountingFilter(std::size_t& calls) : calls_(&calls) {}
  void Apply(core::MappingContext& ctx) override {
    (void)ctx;
    ++*calls_;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "count";
  }

 private:
  std::size_t* calls_;
};

class JobEngineTest : public ::testing::Test {
 protected:
  [[nodiscard]] TrialResult Run(
      const cluster::Cluster& cluster, const workload::TaskTypeTable& table,
      std::vector<workload::Task> tasks, TrialOptions options,
      std::vector<std::unique_ptr<core::Filter>> filters = {}) {
    core::ImmediateModeScheduler scheduler(
        cluster, table, core::MakeHeuristic("SQ", util::RngStream(1)),
        std::move(filters), options.energy_budget, tasks.size());
    Engine engine(cluster, table, std::move(tasks), scheduler, options,
                  util::RngStream(7));
    return engine.Run();
  }

  [[nodiscard]] static TrialOptions JobOptions() {
    TrialOptions options;
    options.energy_budget = 1e9;
    options.collect_task_records = true;
    options.jobs.enabled = true;
    return options;
  }
};

// ---------------------------------------------------------------------------
// BuildJobGraph: the encoding contract.

TEST(BuildJobGraph, MapReduceChainParses) {
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 2, 1.0, 50.0);  // map gang
  AppendStage(tasks, 0, 1, 1, 1.0, 50.0);  // reduce
  const workload::JobGraph graph = workload::BuildJobGraph(tasks);
  ASSERT_EQ(graph.size(), 1u);
  const workload::Job& job = graph.jobs[0];
  ASSERT_EQ(job.stages.size(), 2u);
  EXPECT_EQ(job.stages[0].first_task, 0u);
  EXPECT_EQ(job.stages[0].width, 2u);
  EXPECT_EQ(job.stages[1].first_task, 2u);
  EXPECT_EQ(job.stages[1].width, 1u);
  EXPECT_EQ(job.total_tasks(), 3u);
  EXPECT_FALSE(job.degenerate());
  EXPECT_FALSE(workload::AllTasksDegenerate(tasks));
}

TEST(BuildJobGraph, SelfJobTasksFormDegenerateJobs) {
  const std::vector<Task> tasks = {Task{.id = 0, .arrival = 0.0},
                                   Task{.id = 1, .arrival = 1.0}};
  EXPECT_TRUE(workload::AllTasksDegenerate(tasks));
  const workload::JobGraph graph = workload::BuildJobGraph(tasks);
  ASSERT_EQ(graph.size(), 2u);
  EXPECT_TRUE(graph.jobs[0].degenerate());
  EXPECT_TRUE(graph.jobs[1].degenerate());
}

TEST(BuildJobGraph, RejectsSparseJobIds) {
  std::vector<Task> tasks;
  AppendStage(tasks, 5, 0, 2, 0.0, 10.0);  // first job must have id 0
  EXPECT_THROW((void)workload::BuildJobGraph(tasks), std::invalid_argument);
}

TEST(BuildJobGraph, RejectsJobStartingPastStageZero) {
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 1, 1, 0.0, 10.0);
  EXPECT_THROW((void)workload::BuildJobGraph(tasks), std::invalid_argument);
}

TEST(BuildJobGraph, RejectsMembersWithDifferentDeadlines) {
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 1, 0.0, 10.0);
  AppendStage(tasks, 0, 0, 1, 0.0, 20.0);  // deadline is a per-job property
  EXPECT_THROW((void)workload::BuildJobGraph(tasks), std::invalid_argument);
}

TEST(BuildJobGraph, RejectsMixedTypesWithinAStage) {
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 2, 0.0, 10.0);
  tasks[1].type = 1;  // a gang runs one type
  EXPECT_THROW((void)workload::BuildJobGraph(tasks), std::invalid_argument);
}

TEST(BuildJobGraph, RejectsSkippedStageIndices) {
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 1, 0.0, 10.0);
  AppendStage(tasks, 0, 2, 1, 0.0, 10.0);  // stage 1 missing
  EXPECT_THROW((void)workload::BuildJobGraph(tasks), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Generator job shapes.

TEST(WorkloadGeneratorJobs, ShapesFollowTheConfiguredMix) {
  const cluster::Cluster cluster = test::SingleCoreCluster();
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  workload::WorkloadGeneratorOptions options;
  options.arrivals = workload::ArrivalSpec::PaperBursty(8, 16, 1.0 / 8.0,
                                                        1.0 / 48.0);
  options.jobs.enabled = true;
  options.jobs.widths = {{3, 1.0}};
  options.jobs.depths = {{2, 1.0}};
  options.jobs.deadline_scale = 1.5;
  util::RngStream rng(3);
  const std::vector<Task> tasks =
      workload::GenerateWorkload(table, options, rng);

  // The encoding the engine relies on round-trips through the validator.
  const workload::JobGraph graph = workload::BuildJobGraph(tasks);
  ASSERT_GT(graph.size(), 0u);
  for (const workload::Job& job : graph.jobs) {
    // depth 2: a width-3 map stage, then the width-1 reduce.
    ASSERT_EQ(job.stages.size(), 2u);
    EXPECT_EQ(job.stages[0].width, 3u);
    EXPECT_EQ(job.stages[1].width, 1u);
    // Arrival, deadline, and priority are per-job single sources.
    for (const workload::JobStage& stage : job.stages) {
      for (std::size_t m = 0; m < stage.width; ++m) {
        const Task& task = tasks[stage.first_task + m];
        EXPECT_EQ(task.arrival, job.arrival);
        EXPECT_EQ(task.deadline, job.deadline);
        EXPECT_EQ(task.priority, job.priority);
      }
    }
    EXPECT_GT(job.deadline, job.arrival);
  }
}

TEST(WorkloadGeneratorJobs, DegenerateShapeMatchesIndependentTasksBitwise) {
  // {1@1} x {1@1} with scale 1 must consume the same random numbers and
  // emit the same task list as the pre-jobs generator — the foundation of
  // the whole-stack bit-identity guarantee.
  const cluster::Cluster cluster = test::SingleCoreCluster();
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  workload::WorkloadGeneratorOptions options;
  options.arrivals = workload::ArrivalSpec::PaperBursty(8, 16, 1.0 / 8.0,
                                                        1.0 / 48.0);
  util::RngStream rng_a(3);
  const std::vector<Task> plain =
      workload::GenerateWorkload(table, options, rng_a);
  options.jobs.enabled = true;
  util::RngStream rng_b(3);
  const std::vector<Task> jobs =
      workload::GenerateWorkload(table, options, rng_b);
  ASSERT_EQ(plain.size(), jobs.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].type, jobs[i].type) << i;
    EXPECT_EQ(plain[i].arrival, jobs[i].arrival) << i;
    EXPECT_EQ(plain[i].deadline, jobs[i].deadline) << i;
    EXPECT_EQ(plain[i].priority, jobs[i].priority) << i;
    EXPECT_TRUE(workload::IsDegenerateJobTask(jobs[i])) << i;
  }
}

// ---------------------------------------------------------------------------
// Engine gang semantics.

TEST_F(JobEngineTest, GangStartIsAllOrNothing) {
  // Two cores; an independent task holds one of them until t = 10. The
  // width-2 gang arriving at t = 1 must NOT start its free-core member
  // early: both members wait and start together at t = 10. Deadline 21
  // leaves P0 as the only on-time P-state, pinning the exec time to 10.
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  std::vector<Task> tasks = {Task{.id = 0, .arrival = 0.0, .deadline = 50.0}};
  AppendStage(tasks, 1, 0, 2, 1.0, 21.0);

  const TrialResult result = Run(cluster, table, tasks, JobOptions());

  ASSERT_TRUE(result.jobs.enabled);
  EXPECT_EQ(result.jobs.jobs, 2u);  // the lone task is its own job
  EXPECT_EQ(result.jobs.jobs_on_time, 2u);
  EXPECT_EQ(result.jobs.gangs_placed, 1u);
  EXPECT_EQ(result.jobs.gang_waits, 1u);
  EXPECT_DOUBLE_EQ(result.jobs.gang_wait_seconds, 9.0);  // released 1, start 10
  EXPECT_EQ(result.completed, 3u);

  ASSERT_EQ(result.task_records.size(), 3u);
  const TaskRecord& a = result.task_records[1];
  const TaskRecord& b = result.task_records[2];
  EXPECT_DOUBLE_EQ(a.start_time, 10.0);
  EXPECT_DOUBLE_EQ(b.start_time, 10.0);  // simultaneous
  EXPECT_NE(a.flat_core, b.flat_core);   // distinct cores
  EXPECT_DOUBLE_EQ(result.makespan, 20.0);
}

TEST_F(JobEngineTest, MapReducePrecedenceGatesTheReduceStage) {
  // One map->reduce job on two cores, deadline 20.5: the chain-aware rho
  // (map exec + optimistic reduce tail must fit the deadline) forces the
  // map onto P0, so it runs [0, 10) on both cores — and the reduce may
  // only start when BOTH map members are done.
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 2, 0.0, 20.5);
  AppendStage(tasks, 0, 1, 1, 0.0, 20.5);

  const TrialResult result = Run(cluster, table, tasks, JobOptions());

  ASSERT_EQ(result.task_records.size(), 3u);
  EXPECT_DOUBLE_EQ(result.task_records[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.task_records[1].start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.task_records[2].start_time, 10.0);
  EXPECT_DOUBLE_EQ(result.makespan, 20.0);
  EXPECT_EQ(result.jobs.jobs, 1u);
  EXPECT_EQ(result.jobs.jobs_on_time, 1u);  // last finisher at 20 <= 20.5
  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.weighted_total, 1.0);  // one job, counted once
  EXPECT_EQ(result.weighted_completed, 1.0);
}

TEST_F(JobEngineTest, PerJobDeadlineJudgesTheLastFinisher) {
  // Two cores, a map->reduce job, and two independent fillers that arrive
  // while the map runs. Both fillers start the instant the map frees the
  // cores, so the reduce queues behind one of them and lands at t = 30 —
  // past the job's deadline of 20.5, though both map members met it. The
  // JOB is late, counted once; the map members still tally on time in the
  // task-level buckets.
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 2, 0.0, 20.5);
  AppendStage(tasks, 0, 1, 1, 0.0, 20.5);
  tasks.push_back(Task{.id = 3, .arrival = 0.5, .deadline = 100.0});
  tasks.push_back(Task{.id = 4, .arrival = 0.6, .deadline = 100.0});

  const TrialResult result = Run(cluster, table, tasks, JobOptions());

  EXPECT_EQ(result.jobs.jobs, 3u);  // the DAG plus two degenerate jobs
  EXPECT_EQ(result.jobs.jobs_on_time, 2u);
  EXPECT_EQ(result.jobs.jobs_late, 1u);
  EXPECT_EQ(result.jobs.jobs_failed, 0u);
  // Task-level buckets: 2 map members + 2 fillers on time, the reduce late.
  EXPECT_EQ(result.completed, 4u);
  EXPECT_EQ(result.finished_late, 1u);
  ASSERT_EQ(result.task_records.size(), 5u);
  EXPECT_TRUE(result.task_records[0].on_time);
  EXPECT_TRUE(result.task_records[1].on_time);
  EXPECT_FALSE(result.task_records[2].on_time);  // the last finisher decides
  EXPECT_DOUBLE_EQ(result.task_records[2].finish_time, 30.0);
  EXPECT_EQ(result.weighted_total, 3.0);
  EXPECT_EQ(result.weighted_completed, 2.0);  // the DAG job missed
  EXPECT_EQ(result.weighted_missed, 1.0);
}

TEST_F(JobEngineTest, DomainOutageRequeuesTheWholeGang) {
  // Two single-core nodes (one fault domain each). The width-2 gang starts
  // at t = 0 across both domains; domain 0 dies at t = 5, stranding one
  // member mid-run. Under requeue recovery the WHOLE gang goes back to the
  // pending queue — the surviving member is aborted, and both re-run
  // together once the domain repairs at t = 6.
  const cluster::Cluster cluster(
      {test::SimpleNode(1, 1), test::SimpleNode(1, 1)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0, 10.0});
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 2, 0.0, 50.0);

  TrialOptions options = JobOptions();
  options.recovery_policy = fault::RecoveryPolicy::kRequeueToScheduler;
  options.fault_domains = fault::DeriveNodeDomains(cluster);
  options.fault_schedule.events = {
      {5.0, fault::FaultEventKind::kDomainOutage, 0, 0, 0},
      {6.0, fault::FaultEventKind::kDomainRepair, 0, 0, 0},
  };
  const TrialResult result = Run(cluster, table, tasks, options);

  EXPECT_EQ(result.jobs.gangs_requeued, 1u);
  EXPECT_EQ(result.jobs.gangs_placed, 2u);  // initial start + restart
  EXPECT_EQ(result.jobs.jobs_on_time, 1u);
  EXPECT_EQ(result.jobs.jobs_failed, 0u);
  // Each member tallies once in the task buckets despite running twice.
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.missed_deadlines, 0u);
  // The slack deadline lets min-EEC pick the deepest P-state (exec
  // 10 / 0.4096 = 24.4140625); restart at t = 6 (repair) finishes both
  // members together at 30.4140625, still on time.
  EXPECT_DOUBLE_EQ(result.makespan, 30.4140625);
}

TEST_F(JobEngineTest, DropRecoveryFailsTheGangJob) {
  // Same outage under the drop baseline: the stranded member is lost, so
  // the job can never complete — it fails exactly once.
  const cluster::Cluster cluster(
      {test::SimpleNode(1, 1), test::SimpleNode(1, 1)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0, 10.0});
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 2, 0.0, 50.0);

  TrialOptions options = JobOptions();
  options.recovery_policy = fault::RecoveryPolicy::kDropQueued;
  options.fault_domains = fault::DeriveNodeDomains(cluster);
  options.fault_schedule.events = {
      {5.0, fault::FaultEventKind::kDomainOutage, 0, 0, 0},
  };
  const TrialResult result = Run(cluster, table, tasks, options);

  EXPECT_EQ(result.jobs.jobs_failed, 1u);
  EXPECT_EQ(result.jobs.jobs_on_time, 0u);
  EXPECT_EQ(result.jobs.gangs_requeued, 0u);
  EXPECT_EQ(result.weighted_completed, 0.0);
}

TEST_F(JobEngineTest, SerialPlacementRunsGangMembersIndependently) {
  // The "serial" ablation maps gang members through the per-task pipeline:
  // on a single core the width-2 "gang" simply queues FIFO — placement
  // that the all-or-nothing path could never produce.
  const cluster::Cluster cluster = test::SingleCoreCluster();
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 2, 0.0, 50.0);

  TrialOptions options = JobOptions();
  options.jobs.placement = "serial";
  const TrialResult result = Run(cluster, table, tasks, options);

  EXPECT_EQ(result.completed, 2u);
  EXPECT_DOUBLE_EQ(result.makespan, 20.0);  // [0,10) then [10,20)
  EXPECT_EQ(result.jobs.jobs_on_time, 1u);
  EXPECT_EQ(result.jobs.gangs_placed, 0u);  // no gang machinery engaged
}

TEST_F(JobEngineTest, InfeasiblyWideGangFailsItsJob) {
  // A width-3 gang on a two-core cluster can never start; the job fails
  // (abandoned, not left pending forever) and the trial terminates.
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 3, 0.0, 50.0);

  const TrialResult result = Run(cluster, table, tasks, JobOptions());

  EXPECT_EQ(result.jobs.jobs_failed, 1u);
  EXPECT_EQ(result.jobs.gangs_abandoned, 1u);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(result.missed_deadlines, 3u);
}

TEST_F(JobEngineTest, WaitingGangReservesItsCoresAgainstJuniorGangs) {
  // Three cores; a filler holds one until t = 10. A width-3 map stage
  // released at t = 1 waits on the two free cores and reserves them, so
  // the width-2 gang released at t = 2 cannot backfill them. At t = 10 the
  // map starts on all three cores (generous deadline: the cheapest state,
  // exec 10 / 0.4096 = 24.4140625); the junior gang starts when the map
  // frees two cores, and the reduce takes the third.
  const cluster::Cluster cluster({test::SimpleNode(1, 3)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  std::vector<Task> tasks = {Task{.id = 0, .arrival = 0.0, .deadline = 100.0}};
  AppendStage(tasks, 1, 0, 3, 1.0, 1000.0);  // map
  AppendStage(tasks, 1, 1, 1, 1.0, 1000.0);  // reduce
  AppendStage(tasks, 2, 0, 2, 2.0, 1000.0);  // junior gang

  const TrialResult result = Run(cluster, table, tasks, JobOptions());

  EXPECT_EQ(result.jobs.gangs_placed, 2u);
  EXPECT_EQ(result.jobs.gang_waits, 2u);
  EXPECT_EQ(result.jobs.jobs_on_time, 3u);
  ASSERT_EQ(result.task_records.size(), 7u);
  for (std::size_t id = 1; id <= 3; ++id) {
    EXPECT_DOUBLE_EQ(result.task_records[id].start_time, 10.0) << id;
  }
  const double map_end = 10.0 + 10.0 / 0.4096;
  EXPECT_DOUBLE_EQ(result.task_records[4].start_time, map_end);
  EXPECT_DOUBLE_EQ(result.task_records[5].start_time, map_end);
  EXPECT_DOUBLE_EQ(result.task_records[6].start_time, map_end);
  EXPECT_DOUBLE_EQ(result.jobs.gang_wait_seconds,
                   (10.0 - 1.0) + (map_end - 2.0));
}

TEST(MapGang, ShortOfWidthWaitsWithoutComputingMemberRho) {
  // A width-3 map stage of a map->reduce job sees two feasible cores of
  // three. Member rho folds the chain tail into every candidate by
  // convolution, but only the per-core collapse, the placement policy and
  // the joint check read it, and a gang short of width cores reaches none
  // of them: it waits on the same feasible cores, having computed nothing.
  const cluster::Cluster cluster({test::SimpleNode(1, 3)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 3, 0.0, 100.0);
  AppendStage(tasks, 0, 1, 1, 0.0, 100.0);
  core::ImmediateModeScheduler scheduler(
      cluster, table, core::MakeHeuristic("SQ", util::RngStream(1)), {}, 1e9,
      tasks.size());
  scheduler.ConfigureGangs("pack");
  const std::vector<robustness::CoreQueueModel> cores(cluster.total_cores());
  std::vector<core::CoreAvailability> availability(cluster.total_cores());
  availability[1].available = false;  // busy or reserved
  const pmf::Pmf& tail = table.ExecPmf(0, 0, 0);

  obs::Counters counters;
  core::GangOutcome outcome;
  {
    const obs::CountersScope scope(&counters);
    outcome = scheduler.MapGang(std::span<const Task>(tasks).first(3), 0.0,
                                cores, availability, &tail,
                                /*remap=*/false);
  }
  EXPECT_EQ(outcome.status, core::GangStatus::kWait);
  EXPECT_EQ(outcome.feasible_cores, (std::vector<std::size_t>{0, 2}));
  EXPECT_TRUE(outcome.members.empty());
  EXPECT_EQ(scheduler.tasks_seen(), 0u);
  EXPECT_EQ(counters.pmf_convolutions, 0u);
  EXPECT_EQ(counters.pmf_prob_sum_leq, 0u);
}

TEST_F(JobEngineTest, SweepWithEveryCoreBusyRunsNoPipeline) {
  // Two fillers hold both cores over [0, 10). Three map->reduce gangs
  // released at t = 1, 2, 3 meet only busy cores — six attempts over three
  // sweeps — and expire (deadline 5) before a core frees. No attempt
  // enumerates a candidate, runs a filter, or builds the chain tail (a
  // max-fold of the width-2 reduce stage): only the fillers' two MapTask
  // calls do any of that.
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  std::vector<Task> tasks = {Task{.id = 0, .arrival = 0.0, .deadline = 100.0},
                             Task{.id = 1, .arrival = 0.0, .deadline = 100.0}};
  for (std::size_t job = 2; job <= 4; ++job) {
    const double release = static_cast<double>(job - 1);
    AppendStage(tasks, job, 0, 2, release, 5.0);
    AppendStage(tasks, job, 1, 2, release, 5.0);
  }
  std::size_t filter_calls = 0;
  std::vector<std::unique_ptr<core::Filter>> filters;
  filters.push_back(std::make_unique<CountingFilter>(filter_calls));
  TrialOptions options = JobOptions();
  options.collect_counters = true;

  const TrialResult result =
      Run(cluster, table, tasks, options, std::move(filters));

  EXPECT_EQ(result.jobs.gang_waits, 3u);
  EXPECT_EQ(result.jobs.gangs_abandoned, 3u);
  EXPECT_EQ(result.jobs.gangs_placed, 0u);
  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.counters.candidates_generated, 2u * 2u * 5u);
  EXPECT_EQ(filter_calls, 2u);
  EXPECT_EQ(result.counters.pmf_max_ops, 0u);
  EXPECT_EQ(result.counters.pmf_convolutions, 0u);
}

TEST_F(JobEngineTest, GangDecisionRecordsCountCandidatesBeforeTheFilters) {
  // A width-2 gang on two idle cores under an en budget whose fair share
  // (0.8 * 2812.5 / 3 = 750 J) prunes P0 and P1 (EEC 1000 and 840.3 J) on
  // both cores, then a lone task whose larger share prunes nothing. Gang
  // member records report the same fields as the task record: the 10
  // candidates enumerated before any filter ran, and the en stage.
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  std::vector<Task> tasks;
  AppendStage(tasks, 0, 0, 2, 0.0, 100.0);
  tasks.push_back(Task{.id = 2, .arrival = 50.0, .deadline = 200.0});
  CapturingSink sink;
  TrialOptions options = JobOptions();
  options.energy_budget = 2812.5;
  options.trace_sink = &sink;

  const TrialResult result = Run(cluster, table, tasks, options,
                                 core::MakeFilterChain("en"));

  ASSERT_EQ(result.jobs.gangs_placed, 1u);
  ASSERT_EQ(sink.decisions.size(), 3u);
  const std::vector<obs::FilterStageRecord> gang_stages = {{"en", 4, 6}};
  for (std::size_t i = 0; i < 2; ++i) {
    const obs::MappingDecisionRecord& member = sink.decisions[i];
    EXPECT_EQ(member.task_id, i);
    EXPECT_TRUE(member.assigned);
    EXPECT_EQ(member.candidates_generated, 10u);
    EXPECT_EQ(member.stages, gang_stages);
  }
  const obs::MappingDecisionRecord& task = sink.decisions[2];
  EXPECT_EQ(task.task_id, 2u);
  EXPECT_EQ(task.candidates_generated, 10u);
  EXPECT_EQ(task.stages, (std::vector<obs::FilterStageRecord>{{"en", 0, 10}}));
}

TEST_F(JobEngineTest, AllDegenerateWorkloadDemotesToTaskPathBitwise) {
  // jobs.enabled with an all-degenerate workload must take the exact
  // task-level path: identical result fields and a silent JobStats block.
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  const workload::TaskTypeTable table = DeltaTable(cluster, {10.0});
  const std::vector<Task> tasks = {
      Task{.id = 0, .arrival = 0.0, .deadline = 15.0},
      Task{.id = 1, .arrival = 1.0, .deadline = 12.0},
      Task{.id = 2, .arrival = 2.0, .deadline = 40.0},
  };
  TrialOptions plain;
  plain.energy_budget = 1e9;
  const TrialResult off = Run(cluster, table, tasks, plain);
  TrialOptions jobs = plain;
  jobs.jobs.enabled = true;
  const TrialResult on = Run(cluster, table, tasks, jobs);

  EXPECT_FALSE(on.jobs.enabled);  // demoted: no job ever non-degenerate
  EXPECT_EQ(on.jobs, JobStats{});
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_EQ(on.missed_deadlines, off.missed_deadlines);
  EXPECT_EQ(on.weighted_completed, off.weighted_completed);
  EXPECT_EQ(on.total_energy, off.total_energy);
  EXPECT_EQ(on.makespan, off.makespan);
}

}  // namespace
}  // namespace ecdra::sim
