// End-to-end integration tests over a reduced §VI environment: every
// heuristic x filter variant runs a full trial; cross-module invariants
// (counting identities, energy reconciliation, robustness prediction
// quality) are asserted on the outcome.
#include <algorithm>

#include <gtest/gtest.h>

#include "experiment/paper_config.hpp"
#include "sim/experiment_runner.hpp"

namespace ecdra {
namespace {

sim::SetupOptions ReducedPaperOptions() {
  sim::SetupOptions options = experiment::PaperSetupOptions();
  options.cvb.num_task_types = 20;
  options.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(40, 120, 1.0 / 8.0, 1.0 / 48.0);
  options.budget_task_count = 200.0;
  return options;
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    setup_ = new sim::ExperimentSetup(
        sim::BuildExperimentSetup(experiment::kPaperMasterSeed,
                                  ReducedPaperOptions()));
  }
  static void TearDownTestSuite() {
    delete setup_;
    setup_ = nullptr;
  }

  static sim::ExperimentSetup* setup_;
};

sim::ExperimentSetup* IntegrationTest::setup_ = nullptr;

class AllConfigs
    : public IntegrationTest,
      public ::testing::WithParamInterface<std::tuple<std::string, std::string>> {
};

TEST_P(AllConfigs, TrialSatisfiesCountingAndEnergyInvariants) {
  const auto [heuristic, variant] = GetParam();
  sim::RunOptions options;
  options.collect_task_records = true;
  const sim::TrialResult result =
      sim::RunSingleTrial(*setup_, heuristic, variant, 0, options);

  EXPECT_EQ(result.window_size, 200u);
  EXPECT_EQ(result.completed + result.missed_deadlines, result.window_size);
  EXPECT_EQ(result.missed_deadlines,
            result.discarded + result.finished_late +
                result.on_time_but_over_budget + result.cancelled);

  // Per-task records agree with the aggregate counters.
  std::size_t completed = 0;
  std::size_t discarded = 0;
  for (const sim::TaskRecord& record : result.task_records) {
    if (!record.assigned) {
      ++discarded;
      continue;
    }
    EXPECT_GE(record.start_time, record.arrival);
    EXPECT_GT(record.finish_time, record.start_time);
    EXPECT_EQ(record.on_time, record.finish_time <= record.deadline);
    if (record.on_time && record.within_energy) ++completed;
    EXPECT_GE(record.rho_at_assignment, 0.0);
    EXPECT_LE(record.rho_at_assignment, 1.0);
  }
  EXPECT_EQ(completed, result.completed);
  EXPECT_EQ(discarded, result.discarded);

  // Energy sanity: positive; if exhausted, the trial consumed at least the
  // budget; if not exhausted, it stayed within it.
  EXPECT_GT(result.total_energy, 0.0);
  if (result.energy_exhausted_at) {
    EXPECT_GE(result.total_energy, setup_->energy_budget * (1.0 - 1e-9));
    EXPECT_LE(*result.energy_exhausted_at, result.makespan);
  } else {
    EXPECT_LE(result.total_energy, setup_->energy_budget * (1.0 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(
    HeuristicByVariant, AllConfigs,
    ::testing::Combine(::testing::Values("SQ", "MECT", "LL", "Random"),
                       ::testing::Values("none", "en", "rob", "en+rob")),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param);
      std::replace(name.begin(), name.end(), '+', 'P');
      return name;
    });

TEST_F(IntegrationTest, CommonRandomNumbersShareArrivalsAcrossHeuristics) {
  sim::RunOptions options;
  options.collect_task_records = true;
  const sim::TrialResult a =
      sim::RunSingleTrial(*setup_, "SQ", "none", 3, options);
  const sim::TrialResult b =
      sim::RunSingleTrial(*setup_, "MECT", "en+rob", 3, options);
  ASSERT_EQ(a.task_records.size(), b.task_records.size());
  for (std::size_t i = 0; i < a.task_records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.task_records[i].arrival, b.task_records[i].arrival);
    EXPECT_DOUBLE_EQ(a.task_records[i].deadline, b.task_records[i].deadline);
    EXPECT_EQ(a.task_records[i].type, b.task_records[i].type);
  }
}

TEST_F(IntegrationTest, RobustnessPredictionIsInformative) {
  // Contribution (a) of the paper: rho at assignment should predict on-time
  // completion. Pool several trials; tasks assigned with rho >= 0.8 must
  // finish on time more often than tasks assigned with rho < 0.2.
  sim::RunOptions options;
  options.collect_task_records = true;
  std::size_t high_n = 0, high_on_time = 0, low_n = 0, low_on_time = 0;
  for (std::size_t trial = 0; trial < 6; ++trial) {
    const sim::TrialResult result =
        sim::RunSingleTrial(*setup_, "Random", "none", trial, options);
    for (const sim::TaskRecord& record : result.task_records) {
      if (!record.assigned) continue;
      if (record.rho_at_assignment >= 0.8) {
        ++high_n;
        high_on_time += record.on_time ? 1 : 0;
      } else if (record.rho_at_assignment < 0.2) {
        ++low_n;
        low_on_time += record.on_time ? 1 : 0;
      }
    }
  }
  ASSERT_GT(high_n, 20u);
  ASSERT_GT(low_n, 20u);
  const double high_rate = static_cast<double>(high_on_time) / high_n;
  const double low_rate = static_cast<double>(low_on_time) / low_n;
  EXPECT_GT(high_rate, low_rate + 0.3);
}

TEST_F(IntegrationTest, EnergyFilteringReducesEnergyConsumption) {
  sim::RunOptions options;
  options.num_trials = 3;
  const auto unfiltered = sim::RunTrials(*setup_, "MECT", "none", options);
  const auto filtered = sim::RunTrials(*setup_, "MECT", "en", options);
  double unfiltered_energy = 0.0, filtered_energy = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    unfiltered_energy += unfiltered[i].total_energy;
    filtered_energy += filtered[i].total_energy;
  }
  EXPECT_LT(filtered_energy, unfiltered_energy);
}

TEST_F(IntegrationTest, StayAtLastIdlePolicyBurnsMoreEnergy) {
  sim::RunOptions deepest;
  deepest.num_trials = 2;
  sim::RunOptions stay = deepest;
  stay.idle_policy = sim::IdlePolicy::kStayAtLast;
  const auto a = sim::RunTrials(*setup_, "MECT", "none", deepest);
  const auto b = sim::RunTrials(*setup_, "MECT", "none", stay);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_LT(a[i].total_energy, b[i].total_energy);
  }
}

}  // namespace
}  // namespace ecdra
