// Tests for the batch-mode subsystem: two-phase heuristics on hand-built
// candidate sets, the batch scheduler's filter semantics, and full batch
// trials on sim::Engine in deterministic scenarios.
#include <gtest/gtest.h>

#include <type_traits>

#include "batch/batch_heuristics.hpp"
#include "batch/batch_runner.hpp"
#include "core/factory.hpp"
#include "experiment/paper_config.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "test_support.hpp"
#include "workload/workload_generator.hpp"

namespace ecdra::batch {
namespace {

/// Builds a BatchTask with one candidate per (core, pmf) pair.
BatchTask MakeTask(std::size_t pending_index, const workload::Task& task,
                   const std::vector<std::pair<std::size_t, const pmf::Pmf*>>&
                       core_pmfs,
                   double power = 1.0) {
  BatchTask entry;
  entry.pending_index = pending_index;
  entry.task = &task;
  for (const auto& [flat, exec] : core_pmfs) {
    entry.candidates.push_back(core::Candidate{
        .assignment = core::Assignment{flat, 0},
        .node = 0,
        .exec = exec,
        .eet = exec->Expectation(),
        .eec = exec->Expectation() * power,
    });
  }
  return entry;
}

class BatchHeuristicTest : public ::testing::Test {
 protected:
  pmf::Pmf fast_ = pmf::Pmf::Delta(10.0);
  pmf::Pmf slow_ = pmf::Pmf::Delta(30.0);
  workload::Task task_a_{0, 0, 0.0, 100.0};
  workload::Task task_b_{1, 0, 0.0, 100.0};
};

TEST_F(BatchHeuristicTest, MinMinMapsFastestTaskFirst) {
  // Task a: fast on core 0, slow on core 1. Task b: slow on both.
  const std::vector<BatchTask> tasks{
      MakeTask(0, task_a_, {{0, &fast_}, {1, &slow_}}),
      MakeTask(1, task_b_, {{0, &slow_}, {1, &slow_}}),
  };
  MinMinCompletionTime minmin;
  const auto assignments = minmin.MapBatch(tasks, 0.0);
  ASSERT_EQ(assignments.size(), 2u);
  // Task a goes first to its fast core; task b takes the other.
  EXPECT_EQ(assignments[0].pending_index, 0u);
  EXPECT_EQ(assignments[0].candidate.assignment.flat_core, 0u);
  EXPECT_EQ(assignments[1].pending_index, 1u);
  EXPECT_EQ(assignments[1].candidate.assignment.flat_core, 1u);
}

TEST_F(BatchHeuristicTest, SufferagePrioritizesTheTaskWithMostToLose) {
  // Both tasks prefer core 0. Task a barely cares (10 vs 12); task b
  // suffers badly without it (10 vs 30). Sufferage gives core 0 to task b;
  // Min-Min would give it to task a (alphabetical tie on ECT 10, index
  // order) — wait, both best ECTs are 10, Min-Min takes the first.
  pmf::Pmf slightly_slow = pmf::Pmf::Delta(12.0);
  const std::vector<BatchTask> tasks{
      MakeTask(0, task_a_, {{0, &fast_}, {1, &slightly_slow}}),
      MakeTask(1, task_b_, {{0, &fast_}, {1, &slow_}}),
  };
  Sufferage sufferage;
  const auto assignments = sufferage.MapBatch(tasks, 0.0);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].pending_index, 1u);  // task b first
  EXPECT_EQ(assignments[0].candidate.assignment.flat_core, 0u);
  EXPECT_EQ(assignments[1].pending_index, 0u);
  EXPECT_EQ(assignments[1].candidate.assignment.flat_core, 1u);
}

TEST_F(BatchHeuristicTest, MaxMaxRobustnessMapsTheMostCertainTaskFirst) {
  // Task a can surely finish (exec 10, deadline 100); task b has deadline
  // 25: only the fast core gives it a chance.
  workload::Task tight{1, 0, 0.0, 25.0};
  const std::vector<BatchTask> tasks{
      MakeTask(0, task_a_, {{0, &fast_}, {1, &slow_}}),
      MakeTask(1, tight, {{0, &fast_}, {1, &slow_}}),
  };
  MaxMaxRobustness maxmax;
  const auto assignments = maxmax.MapBatch(tasks, 0.0);
  ASSERT_EQ(assignments.size(), 2u);
  // Task a (rho = 1 anywhere) maps first by greedy max-rho; it must NOT
  // steal the fast core that task b needs... greedy MaxMax does take core 0
  // for task a (both rho 1 there). Verify structural validity instead:
  // distinct cores, both mapped.
  EXPECT_NE(assignments[0].candidate.assignment.flat_core,
            assignments[1].candidate.assignment.flat_core);
}

TEST_F(BatchHeuristicTest, MinMinEnergyPicksCheapestAssignments) {
  const std::vector<BatchTask> tasks{
      MakeTask(0, task_a_, {{0, &fast_}, {1, &slow_}}),  // eec 10 vs 30
  };
  MinMinEnergy minmin;
  const auto assignments = minmin.MapBatch(tasks, 0.0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].candidate.assignment.flat_core, 0u);
}

TEST_F(BatchHeuristicTest, NoTwoTasksShareACore) {
  // Three tasks, two cores: exactly two assignments, distinct cores.
  workload::Task task_c{2, 0, 0.0, 100.0};
  const std::vector<BatchTask> tasks{
      MakeTask(0, task_a_, {{0, &fast_}, {1, &slow_}}),
      MakeTask(1, task_b_, {{0, &fast_}, {1, &fast_}}),
      MakeTask(2, task_c, {{0, &slow_}, {1, &fast_}}),
  };
  for (const std::string& name : BatchHeuristicNames()) {
    const auto heuristic = MakeBatchHeuristic(name);
    const auto assignments = heuristic->MapBatch(tasks, 0.0);
    ASSERT_EQ(assignments.size(), 2u) << name;
    EXPECT_NE(assignments[0].candidate.assignment.flat_core,
              assignments[1].candidate.assignment.flat_core)
        << name;
    EXPECT_NE(assignments[0].pending_index, assignments[1].pending_index)
        << name;
  }
}

TEST_F(BatchHeuristicTest, EmptyInputsYieldNoAssignments) {
  for (const std::string& name : BatchHeuristicNames()) {
    const auto heuristic = MakeBatchHeuristic(name);
    EXPECT_TRUE(heuristic->MapBatch({}, 0.0).empty()) << name;
  }
}

TEST(BatchFactory, RejectsUnknownNames) {
  EXPECT_THROW((void)MakeBatchHeuristic("NotAHeuristic"),
               std::invalid_argument);
  EXPECT_EQ(BatchHeuristicNames().size(), 4u);
}

// ---------------------------------------------------------------------------
// Batch trials on sim::Engine, on a deterministic single-type table.

workload::TaskTypeTable DeltaTable(const cluster::Cluster& cluster,
                                   double base) {
  std::vector<pmf::Pmf> pmfs;
  for (std::size_t node = 0; node < cluster.num_nodes(); ++node) {
    for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
      pmfs.push_back(pmf::Pmf::Delta(
          base * cluster.node(node).pstates[s].time_multiplier));
    }
  }
  return workload::TaskTypeTable(1, cluster.num_nodes(), std::move(pmfs));
}

class BatchTrialTest : public ::testing::Test {
 protected:
  BatchTrialTest()
      : cluster_({test::SimpleNode(1, 2)}), table_(DeltaTable(cluster_, 10.0)) {}

  [[nodiscard]] sim::TrialResult Run(
      std::vector<workload::Task> tasks, const std::string& heuristic,
      const sim::TrialOptions& options,
      const std::string& filter_variant = "en+rob",
      const core::FilterChainOptions& filter_options = {}) {
    BatchScheduler scheduler(
        cluster_, table_, MakeBatchHeuristic(heuristic),
        core::MakeFilterChain(filter_variant, filter_options),
        options.energy_budget, tasks.size());
    sim::Engine engine(cluster_, table_, std::move(tasks), scheduler, options,
                       util::RngStream(7));
    return engine.Run();
  }

  cluster::Cluster cluster_;
  workload::TaskTypeTable table_;
};

TEST_F(BatchTrialTest, MapsArrivalsToIdleCoresImmediately) {
  sim::TrialOptions options;
  options.energy_budget = 1e9;
  options.collect_task_records = true;
  const sim::TrialResult result =
      Run({workload::Task{0, 0, 0.0, 100.0}, workload::Task{1, 0, 1.0, 100.0}},
          "MinMinCT", options, "rob");  // no energy filter: P0 everywhere
  EXPECT_EQ(result.completed, 2u);
  EXPECT_DOUBLE_EQ(result.task_records[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.task_records[1].start_time, 1.0);
}

TEST_F(BatchTrialTest, QueuedTaskWaitsForACoreAndRemapsAtCompletion) {
  // Three tasks, two cores: the third waits in the global queue and starts
  // when the first completion frees a core.
  sim::TrialOptions options;
  options.energy_budget = 1e9;
  options.collect_task_records = true;
  options.collect_counters = true;
  const sim::TrialResult result =
      Run({workload::Task{0, 0, 0.0, 100.0}, workload::Task{1, 0, 0.5, 100.0},
           workload::Task{2, 0, 1.0, 100.0}},
          "MinMinCT", options, "rob");
  EXPECT_EQ(result.completed, 3u);
  // Task 2 starts when task 0 finishes at 10 (MinMin on idle cores).
  EXPECT_DOUBLE_EQ(result.task_records[2].start_time, 10.0);
  // P4 -> P0 at t = 0 and t = 0.5, back to P4 at t = 10.5 and t = 20. At
  // t = 10 the pool is swept before core 0 idles, so task 2 takes it at P0
  // with no switch; idling first would log P0 -> P4 -> P0 there (6).
  EXPECT_EQ(result.counters.pstate_switches, 4u);
}

TEST_F(BatchTrialTest, RobustnessFilterHoldsBackHopelessMappings) {
  // With rho_thresh = 1.0 and a deadline only satisfiable at P0, every
  // assignment at lower P-states is infeasible; the task still maps at P0.
  sim::TrialOptions options;
  options.energy_budget = 1e9;
  options.collect_task_records = true;
  core::FilterChainOptions filter_options;
  filter_options.robustness_threshold = 1.0;
  const sim::TrialResult result = Run({workload::Task{0, 0, 0.0, 11.0}},
                                      "MinMinEnergy", options, "rob",
                                      filter_options);
  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.task_records[0].pstate, 0u);  // P4 would take 24.4 s
}

TEST_F(BatchTrialTest, UnmappableTasksEndUpDiscarded) {
  // Zero-ish budget estimate: the energy fair share is 0, nothing ever maps.
  sim::TrialOptions options;
  options.energy_budget = 1e-6;
  const sim::TrialResult result =
      Run({workload::Task{0, 0, 0.0, 100.0}}, "MinMinCT", options);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(result.discarded, 1u);
  EXPECT_EQ(result.missed_deadlines, 1u);
}

TEST_F(BatchTrialTest, CancelPolicyDropsHopelessPendingTasks) {
  // Both cores busy [0, 10); a task with deadline 5 waits in the queue and
  // is cancelled at the first mapping event after its deadline.
  sim::TrialOptions options;
  options.energy_budget = 1e9;
  options.cancel_policy = sim::CancelPolicy::kCancelHopelessQueued;
  options.collect_task_records = true;
  const sim::TrialResult result =
      Run({workload::Task{0, 0, 0.0, 100.0}, workload::Task{1, 0, 0.0, 100.0},
           workload::Task{2, 0, 1.0, 5.0}},
          "MinMinCT", options, "rob");
  EXPECT_EQ(result.cancelled, 1u);
  EXPECT_TRUE(result.task_records[2].cancelled);
  EXPECT_EQ(result.completed, 2u);
}

TEST_F(BatchTrialTest, EnergyAccountingMatchesImmediateModeSemantics) {
  sim::TrialOptions options;
  options.energy_budget = 1e9;
  const sim::TrialResult result =
      Run({workload::Task{0, 0, 1.0, 100.0}}, "MinMinCT", options, "none");
  // Idle P4 [0,1) on both cores, one core P0 [1,11), other P4 throughout.
  const double p4 = 100.0 / 2.25 * 0.4096;
  EXPECT_NEAR(result.total_energy, 2.0 * 1.0 * p4 + 10.0 * 100.0 + 10.0 * p4,
              1e-9);
}

TEST(BatchScheduler, EnergyFairShareGatesAssignments) {
  const cluster::Cluster cluster({test::SimpleNode()});
  auto table = DeltaTable(cluster, 100.0);
  // Cheapest assignment: P4, eec = 244.14 * 18.2 ~ 4443.
  // Budget so small that even the cheapest candidate exceeds the fair
  // share: queue depth 1 -> zeta_mul 1.0, fair share 4000 < 4443.
  BatchScheduler starved(cluster, table, MakeBatchHeuristic("MinMinEnergy"),
                         core::MakeFilterChain("en"), 4000.0, 1);
  const workload::Task task{0, 0, 0.0, 1e9};
  EXPECT_TRUE(starved.MapEvent({task}, {true}, 0.0, 0).empty());

  // A generous budget admits it and charges the estimator.
  BatchScheduler funded(cluster, table, MakeBatchHeuristic("MinMinEnergy"),
                        core::MakeFilterChain("en"), 1e6, 1);
  const auto assignments = funded.MapEvent({task}, {true}, 0.0, 0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].candidate.assignment.pstate,
            cluster::kNumPStates - 1);
  EXPECT_DOUBLE_EQ(funded.estimator().remaining(),
                   1e6 - assignments[0].candidate.eec);
  EXPECT_EQ(funded.tasks_started(), 1u);
}

TEST(BatchScheduler, NoIdleCoresMeansNoAssignments) {
  const cluster::Cluster cluster({test::SimpleNode()});
  auto table = DeltaTable(cluster, 100.0);
  BatchScheduler scheduler(cluster, table, MakeBatchHeuristic("MinMinCT"),
                           core::MakeFilterChain("en+rob"), 1e9, 1);
  const workload::Task task{0, 0, 0.0, 1e9};
  EXPECT_TRUE(scheduler.MapEvent({task}, {false}, 0.0, 1).empty());
  EXPECT_TRUE(scheduler.MapEvent({}, {true}, 0.0, 0).empty());
}

TEST(BatchScheduler, RejectsInvalidConstruction) {
  const cluster::Cluster cluster({test::SimpleNode()});
  auto table = DeltaTable(cluster, 100.0);
  EXPECT_THROW((void)BatchScheduler(cluster, table, nullptr,
                                    core::MakeFilterChain("en+rob"), 1e9, 1),
               std::invalid_argument);
  EXPECT_THROW((void)BatchScheduler(cluster, table,
                                    MakeBatchHeuristic("MinMinCT"),
                                    core::MakeFilterChain("en+rob"), 0.0, 1),
               std::invalid_argument);
  // An out-of-range threshold is rejected where the chain is built — the
  // same validation the immediate stack gets.
  core::FilterChainOptions bad;
  bad.robustness_threshold = 2.0;
  EXPECT_THROW((void)core::MakeFilterChain("en+rob", bad),
               std::invalid_argument);
}

TEST(BatchRunner, FilterOptionsAreTheImmediateStacksVerbatim) {
  // Both stacks share one source of filter defaults: the same
  // core::FilterChainOptions type, default-constructed. There is no
  // batch-side copy of robustness_threshold or the energy-filter knobs to
  // drift out of sync (BatchFilterOptions is gone).
  static_assert(
      std::is_same_v<decltype(BatchRunOptions::filter_options),
                     decltype(sim::RunOptions::filter_options)>,
      "batch and immediate modes must share core::FilterChainOptions");
  static_assert(std::is_same_v<decltype(BatchRunOptions::filter_options),
                               core::FilterChainOptions>);

  const core::FilterChainOptions batch_defaults =
      BatchRunOptions{}.filter_options;
  const core::FilterChainOptions immediate_defaults =
      sim::RunOptions{}.filter_options;
  EXPECT_EQ(batch_defaults.robustness_threshold,
            immediate_defaults.robustness_threshold);
  EXPECT_EQ(batch_defaults.robustness_threshold, 0.5);
  EXPECT_EQ(batch_defaults.energy.low_multiplier,
            immediate_defaults.energy.low_multiplier);
  EXPECT_EQ(batch_defaults.energy.mid_multiplier,
            immediate_defaults.energy.mid_multiplier);
  EXPECT_EQ(batch_defaults.energy.high_multiplier,
            immediate_defaults.energy.high_multiplier);
  EXPECT_EQ(batch_defaults.energy.low_depth,
            immediate_defaults.energy.low_depth);
  EXPECT_EQ(batch_defaults.energy.high_depth,
            immediate_defaults.energy.high_depth);
  EXPECT_EQ(batch_defaults.energy.scale_fair_share_by_priority,
            immediate_defaults.energy.scale_fair_share_by_priority);
  EXPECT_EQ(batch_defaults.energy.priority_baseline,
            immediate_defaults.energy.priority_baseline);
}

TEST_F(BatchTrialTest, RefusesTheExtensionsBatchModeCannotRun) {
  // Each extension calls into the immediate scheduler, so the engine refuses
  // it in batch mode instead of running as if the knob were unset.
  const std::vector<std::pair<std::string, void (*)(sim::TrialOptions&)>>
      refused{
          {"fault schedule",
           [](sim::TrialOptions& o) {
             o.fault_schedule.events.push_back(fault::FaultEvent{});
           }},
          {"governor",
           [](sim::TrialOptions& o) { o.governor = "race-to-idle"; }},
          {"stream", [](sim::TrialOptions& o) { o.stream.enabled = true; }},
          {"jobs", [](sim::TrialOptions& o) { o.jobs.enabled = true; }},
          {"econ", [](sim::TrialOptions& o) { o.econ.enabled = true; }},
      };
  for (const auto& [knob, set] : refused) {
    sim::TrialOptions options;
    options.energy_budget = 1e9;
    set(options);
    EXPECT_THROW(
        (void)Run({workload::Task{0, 0, 0.0, 100.0}}, "MinMinCT", options),
        std::invalid_argument)
        << knob;
  }
}

/// Three nodes, ten task types, 60 tasks per trial.
sim::ExperimentSetup SmallSetup() {
  sim::SetupOptions small;
  small.cluster.num_nodes = 3;
  small.cvb.num_task_types = 10;
  small.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(15, 30, 1.0 / 8.0, 1.0 / 48.0);
  return sim::BuildExperimentSetup(3, small);
}

TEST(BatchRunner, DeterministicAndComparableToImmediate) {
  const sim::ExperimentSetup setup = SmallSetup();

  // One thread against four: every trial must come out byte-identical.
  BatchRunOptions options;
  options.num_trials = 4;
  options.collect_task_records = true;
  options.num_threads = 1;
  const auto a = RunBatchTrials(setup, "MinMinCT", options);
  options.num_threads = 4;
  const auto b = RunBatchTrials(setup, "MinMinCT", options);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  const auto json = [](sim::TrialResult result) {
    result.task_records.clear();
    return sim::TrialResultToJson(result);
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(json(a[i]), json(b[i])) << "trial " << i;
    EXPECT_EQ(a[i].window_size, 60u);
    EXPECT_EQ(a[i].missed_deadlines,
              a[i].discarded + a[i].finished_late +
                  a[i].on_time_but_over_budget + a[i].cancelled);
  }

  // Same trial index = same workload as the immediate-mode runner.
  const sim::TrialResult immediate =
      sim::RunSingleTrial(setup, "SQ", "none", 0,
                          [] {
                            sim::RunOptions options;
                            options.collect_task_records = true;
                            return options;
                          }());
  for (std::size_t i = 0; i < immediate.task_records.size(); ++i) {
    EXPECT_DOUBLE_EQ(immediate.task_records[i].arrival,
                     a[0].task_records[i].arrival);
    EXPECT_EQ(immediate.task_records[i].type, a[0].task_records[i].type);
  }
}

TEST(BatchRunner, AllHeuristicsSatisfyInvariantsOnPaperWorkload) {
  const sim::ExperimentSetup setup = SmallSetup();
  for (const std::string& name : BatchHeuristicNames()) {
    const sim::TrialResult result = RunBatchTrial(setup, name, 1);
    EXPECT_EQ(result.completed + result.missed_deadlines, 60u) << name;
    EXPECT_GT(result.total_energy, 0.0) << name;
  }
}

TEST(BatchRunner, BatchTrialsPassTheEnginesDeepValidation) {
  // Batch trials run on sim::Engine, so they take its invariant audits:
  // event order, the budget cutoff, queue-model/engine sync and every pmf
  // operation. The workload is the runner's trial 0.
  const sim::ExperimentSetup setup = SmallSetup();
  for (const std::string& name : BatchHeuristicNames()) {
    const util::RngStream trial_rng =
        util::RngStream(setup.master_seed).Substream("trial", 0);
    util::RngStream workload_rng = trial_rng.Substream("workload");
    BatchScheduler scheduler(setup.cluster, setup.types,
                             MakeBatchHeuristic(name),
                             core::MakeFilterChain("en+rob"),
                             setup.energy_budget, setup.window_size);
    sim::TrialOptions options;
    options.energy_budget = setup.energy_budget;
    options.validation = validate::ValidationMode::kDeep;
    options.validation_fail_fast = true;
    sim::Engine engine(
        setup.cluster, setup.types,
        workload::GenerateWorkload(setup.types, setup.workload, workload_rng),
        scheduler, options, trial_rng.Substream("sim"));
    sim::TrialResult result;
    ASSERT_NO_THROW(result = engine.Run()) << name;
    EXPECT_GT(result.validation.checks_run, 0u) << name;
    EXPECT_EQ(result.completed + result.missed_deadlines, result.window_size)
        << name;
  }
}

// Batch mode has no fault, governor, econ, gang, DVFS-latency, or
// stochastic-power machinery: a spec setting any of them is refused with
// one typed line naming every offending key, never silently run as if the
// knob were unset.
TEST(BatchRunner, FromSpecRefusesEveryKnobItCannotHonor) {
  EXPECT_NO_THROW((void)BatchRunOptionsFromSpec(experiment::PaperScenario()));
  policy::ScenarioSpec spec;
  spec.fault.mtbf = 100.0;
  spec.governor = "race-to-idle";
  spec.econ_enabled = true;
  spec.pstate_transition_latency = 0.5;
  spec.power_cov = 0.1;
  spec.environment.workload.jobs.enabled = true;
  try {
    (void)BatchRunOptionsFromSpec(spec);
    FAIL() << "expected BatchSpecError";
  } catch (const policy::BatchSpecError& error) {
    const std::string message = error.what();
    for (const char* key :
         {"run.fault.mtbf = 100", "run.governor = race-to-idle",
          "run.econ.enabled = true", "run.pstate_transition_latency = 0.5",
          "run.power_cov = 0.1", "env.workload.jobs.enabled = true"}) {
      EXPECT_NE(message.find(key), std::string::npos) << message;
    }
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  }
  // Knobs batch mode does honor pass through.
  policy::ScenarioSpec honored;
  honored.idle_policy = policy::IdlePolicy::kStayAtLast;
  honored.filter_options.robustness_threshold = 0.8;
  EXPECT_NO_THROW((void)BatchRunOptionsFromSpec(honored));
}

}  // namespace
}  // namespace ecdra::batch
