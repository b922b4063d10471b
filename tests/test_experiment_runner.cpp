#include "sim/experiment_runner.hpp"

#include <gtest/gtest.h>

#include "experiment/paper_config.hpp"

namespace ecdra::sim {
namespace {

/// Small, fast setup for runner tests: 3 nodes, 10 types, 60-task window.
SetupOptions SmallOptions() {
  SetupOptions options;
  options.cluster.num_nodes = 3;
  options.cvb.num_task_types = 10;
  options.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(15, 30, 1.0 / 8.0, 1.0 / 48.0);
  return options;
}

TEST(BuildExperimentSetup, DerivedQuantitiesAreConsistent) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  EXPECT_EQ(setup.cluster.num_nodes(), 3u);
  EXPECT_EQ(setup.etc.num_types(), 10u);
  EXPECT_EQ(setup.etc.num_machines(), 3u);
  EXPECT_EQ(setup.window_size, 60u);
  EXPECT_DOUBLE_EQ(setup.t_avg, setup.types.GrandMeanExec());
  // Eq. 8 by hand.
  double power_sum = 0.0;
  for (const cluster::Node& node : setup.cluster.nodes()) {
    for (const cluster::PState& p : node.pstates) power_sum += p.power_watts;
  }
  EXPECT_DOUBLE_EQ(setup.p_avg,
                   power_sum / (3.0 * cluster::kNumPStates));
  EXPECT_DOUBLE_EQ(setup.energy_budget, setup.t_avg * setup.p_avg * 1000.0);
  EXPECT_EQ(setup.master_seed, 3u);
}

TEST(BuildExperimentSetup, DeterministicPerSeed) {
  const ExperimentSetup a = BuildExperimentSetup(5, SmallOptions());
  const ExperimentSetup b = BuildExperimentSetup(5, SmallOptions());
  EXPECT_DOUBLE_EQ(a.t_avg, b.t_avg);
  EXPECT_DOUBLE_EQ(a.energy_budget, b.energy_budget);
  EXPECT_EQ(a.cluster.total_cores(), b.cluster.total_cores());
  const ExperimentSetup c = BuildExperimentSetup(6, SmallOptions());
  EXPECT_NE(a.t_avg, c.t_avg);
}

TEST(RunSingleTrial, IsDeterministic) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const TrialResult a = RunSingleTrial(setup, "SQ", "en+rob", 0);
  const TrialResult b = RunSingleTrial(setup, "SQ", "en+rob", 0);
  EXPECT_EQ(a.missed_deadlines, b.missed_deadlines);
  EXPECT_DOUBLE_EQ(a.total_energy, b.total_energy);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(RunSingleTrial, TrialsDifferByIndex) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const TrialResult a = RunSingleTrial(setup, "SQ", "none", 0);
  const TrialResult b = RunSingleTrial(setup, "SQ", "none", 1);
  EXPECT_NE(a.makespan, b.makespan);  // different arrivals
}

TEST(RunSingleTrial, ResultInvariantsHold) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const policy::PolicyGrid grid = experiment::PaperScenario().grid;
  for (const std::string& heuristic : grid.heuristics) {
    for (const std::string& variant : grid.filter_variants) {
      const TrialResult result =
          RunSingleTrial(setup, heuristic, variant, 2);
      EXPECT_EQ(result.window_size, 60u);
      EXPECT_EQ(result.completed + result.missed_deadlines, 60u);
      EXPECT_EQ(result.missed_deadlines,
                result.discarded + result.finished_late +
                    result.on_time_but_over_budget + result.cancelled);
      EXPECT_GT(result.total_energy, 0.0);
      EXPECT_GT(result.makespan, 0.0);
    }
  }
}

TEST(RunTrials, MatchesSingleTrialsInOrder) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.num_trials = 4;
  options.num_threads = 2;
  const std::vector<TrialResult> batch =
      RunTrials(setup, "MECT", "en", options);
  ASSERT_EQ(batch.size(), 4u);
  for (std::size_t trial = 0; trial < 4; ++trial) {
    const TrialResult single =
        RunSingleTrial(setup, "MECT", "en", trial, options);
    EXPECT_EQ(batch[trial].missed_deadlines, single.missed_deadlines);
    EXPECT_DOUBLE_EQ(batch[trial].total_energy, single.total_energy);
  }
}

TEST(RunTrials, CollectsTaskRecordsWhenAsked) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.num_trials = 1;
  options.collect_task_records = true;
  const std::vector<TrialResult> results =
      RunTrials(setup, "LL", "en+rob", options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].task_records.size(), 60u);
}

TEST(RunTrials, RejectsZeroTrials) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.num_trials = 0;
  EXPECT_THROW((void)RunTrials(setup, "SQ", "none", options),
               std::invalid_argument);
}

TEST(PaperConfig, MatchesSectionSix) {
  const SetupOptions options = experiment::PaperSetupOptions();
  EXPECT_EQ(options.cluster.num_nodes, 8u);
  EXPECT_EQ(options.cvb.num_task_types, 100u);
  EXPECT_DOUBLE_EQ(options.cvb.task_mean, 750.0);
  EXPECT_DOUBLE_EQ(options.cvb.task_cov, 0.25);
  EXPECT_DOUBLE_EQ(options.cvb.machine_cov, 0.25);
  ASSERT_EQ(options.workload.arrivals.phases.size(), 3u);
  EXPECT_EQ(options.workload.arrivals.total_tasks(), 1000u);
  EXPECT_DOUBLE_EQ(options.budget_task_count, 1000.0);
  EXPECT_EQ(experiment::PaperRunOptions().num_trials, 50u);
}

TEST(PaperConfig, CanonicalSetupIsOversubscribableButFeasible) {
  const ExperimentSetup setup = experiment::BuildPaperSetup();
  // Burst arrivals outpace even the all-P0 service rate (oversubscription);
  // lull arrivals sit below the all-P-state-average service rate.
  const double cores = static_cast<double>(setup.cluster.total_cores());
  const double p0_mean = setup.t_avg /
                         [&] {
                           // ratio between grand mean and P0-only mean
                           double all = 0.0, p0 = 0.0;
                           for (std::size_t n = 0;
                                n < setup.cluster.num_nodes(); ++n) {
                             for (cluster::PStateIndex s = 0;
                                  s < cluster::kNumPStates; ++s) {
                               all += setup.cluster.node(n)
                                          .pstates[s]
                                          .time_multiplier;
                             }
                             p0 += 1.0;
                           }
                           return all / (p0 * cluster::kNumPStates);
                         }();
  const double burst_load = (1.0 / 8.0) * p0_mean;   // cores needed at P0
  const double lull_load = (1.0 / 48.0) * setup.t_avg;
  EXPECT_GT(burst_load, cores);  // oversubscribed during bursts
  EXPECT_LT(lull_load, cores);   // undersubscribed during the lull
}

}  // namespace
}  // namespace ecdra::sim
