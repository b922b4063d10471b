// The econ subsystem (src/econ): the EconModel's value/tier/decay arithmetic,
// attribute stamping onto generated workloads (determinism, per-job tier
// draws, typed bounds diagnostics), the ProfitMeter's accounting, the
// value-density admission policy, the econ-greedy heuristic, the SLA filter,
// the profit-guard governor, and the end-to-end guarantee that metering a
// trial perturbs none of the paper's metrics.
#include "econ/econ_model.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/econ_greedy.hpp"
#include "core/mapping_context.hpp"
#include "core/sla_filter.hpp"
#include "econ/profit_meter.hpp"
#include "governor/governor.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment_runner.hpp"
#include "stream/admission.hpp"
#include "test_support.hpp"
#include "workload/task_type_table.hpp"
#include "workload/type_bounds.hpp"

namespace ecdra {
namespace {

// -- EconModel arithmetic --

TEST(EconModel, DefaultModelIsTrivial) {
  EXPECT_TRUE(econ::EconModel{}.trivial());
}

TEST(EconModel, AnyPricedDimensionMakesItNonTrivial) {
  econ::EconModel values;
  values.type_values = {0.0, 1.0};
  EXPECT_FALSE(values.trivial());

  econ::EconModel price;
  price.energy_price = 0.5;
  EXPECT_FALSE(price.trivial());

  econ::EconModel tiered;
  tiered.tiers = {econ::SlaTier{"gold", 2.0, 1.0, 0.0, 1.0}};
  EXPECT_FALSE(tiered.trivial());
}

TEST(EconModel, AllZeroValuesAndNeutralTiersStayTrivial) {
  // The degenerate configuration the golden fixture depends on: zero
  // values, free energy, and neutral tiers (whatever their mix weights).
  econ::EconModel model;
  model.type_values = {0.0, 0.0, 0.0};
  model.tiers = {econ::SlaTier{"a", 1.0, 1.0, 0.0, 0.7},
                 econ::SlaTier{"b", 1.0, 1.0, 0.0, 0.3}};
  EXPECT_TRUE(model.trivial());
}

TEST(EconModel, ValueForTypeCyclesShortLists) {
  econ::EconModel model;
  model.type_values = {1.0, 10.0};
  EXPECT_DOUBLE_EQ(model.ValueForType(0), 1.0);
  EXPECT_DOUBLE_EQ(model.ValueForType(1), 10.0);
  EXPECT_DOUBLE_EQ(model.ValueForType(2), 1.0);
  EXPECT_DOUBLE_EQ(model.ValueForType(97), 10.0);
}

TEST(EconModel, EmptyValueListPricesEverythingAtZero) {
  EXPECT_DOUBLE_EQ(econ::EconModel{}.ValueForType(42), 0.0);
}

TEST(EconModel, TierOfEmptyListIsTheNeutralTier) {
  const econ::EconModel model;
  EXPECT_EQ(model.TierOf(0), econ::NeutralTier());
  EXPECT_THROW((void)model.TierOf(1), std::invalid_argument);
}

TEST(EconModel, TierOfRejectsOutOfRangeIndices) {
  econ::EconModel model;
  model.tiers = {econ::SlaTier{}, econ::SlaTier{}};
  EXPECT_EQ(&model.TierOf(1), &model.tiers[1]);
  EXPECT_THROW((void)model.TierOf(2), std::invalid_argument);
}

TEST(EconModel, RealizedValueKeepsThePaperHardCutoffWithoutDecay) {
  const econ::EconModel model;  // value_decay = 0
  EXPECT_DOUBLE_EQ(model.RealizedValue(10.0, 100.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(model.RealizedValue(10.0, 100.0, 100.0 + 1e-9), 0.0);
}

TEST(EconModel, RealizedValueDecaysLinearlyInsideTheWindow) {
  econ::EconModel model;
  model.value_decay = 100.0;
  EXPECT_DOUBLE_EQ(model.RealizedValue(10.0, 100.0, 90.0), 10.0);
  EXPECT_DOUBLE_EQ(model.RealizedValue(10.0, 100.0, 125.0), 7.5);
  EXPECT_DOUBLE_EQ(model.RealizedValue(10.0, 100.0, 150.0), 5.0);
  EXPECT_DOUBLE_EQ(model.RealizedValue(10.0, 100.0, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(model.RealizedValue(10.0, 100.0, 500.0), 0.0);
}

// -- AssignEconAttributes --

TEST(AssignEconAttributes, StampsTierScaledValues) {
  econ::EconModel model;
  model.type_values = {1.0, 10.0};
  model.tiers = {econ::SlaTier{"gold", 3.0, 1.0, 0.0, 1.0}};
  std::vector<workload::Task> tasks{workload::Task{0, 0, 0.0, 10.0},
                                    workload::Task{1, 1, 0.0, 10.0},
                                    workload::Task{2, 2, 0.0, 10.0}};
  econ::AssignEconAttributes(tasks, model, 3, util::RngStream(1));
  EXPECT_DOUBLE_EQ(tasks[0].value, 3.0);
  EXPECT_DOUBLE_EQ(tasks[1].value, 30.0);
  EXPECT_DOUBLE_EQ(tasks[2].value, 3.0);  // cycled back to type value 1.0
  for (const workload::Task& task : tasks) EXPECT_EQ(task.tier, 0u);
}

TEST(AssignEconAttributes, SingleClassMixDrawsNothing) {
  // One tier (or none) must not consume randomness: the same substream
  // used elsewhere afterwards sees the same draws either way.
  econ::EconModel model;
  model.type_values = {1.0};
  std::vector<workload::Task> tasks{workload::Task{0, 0, 0.0, 10.0}};
  util::RngStream root(11);
  econ::AssignEconAttributes(tasks, model, 1, root.Substream("econ", 0));
  EXPECT_EQ(tasks[0].tier, 0u);
}

TEST(AssignEconAttributes, TierDrawsAreDeterministicPerSubstream) {
  econ::EconModel model;
  model.type_values = {1.0};
  model.tiers = {econ::SlaTier{"gold", 3.0, 2.0, 0.5, 0.3},
                 econ::SlaTier{"best-effort", 1.0, 1.0, 0.0, 0.7}};
  std::vector<workload::Task> a;
  std::vector<workload::Task> b;
  for (std::size_t i = 0; i < 200; ++i) {
    a.push_back(workload::Task{i, 0, 0.0, 10.0});
    b.push_back(workload::Task{i, 0, 0.0, 10.0});
  }
  econ::AssignEconAttributes(a, model, 1, util::RngStream(7));
  econ::AssignEconAttributes(b, model, 1, util::RngStream(7));
  EXPECT_EQ(a, b);
  // Both tiers actually appear over 200 draws of a 30/70 mix.
  const auto gold = [](const workload::Task& t) { return t.tier == 0; };
  EXPECT_TRUE(std::any_of(a.begin(), a.end(), gold));
  EXPECT_FALSE(std::all_of(a.begin(), a.end(), gold));
}

TEST(AssignEconAttributes, JobMembersShareOneTierDraw) {
  econ::EconModel model;
  model.type_values = {1.0};
  model.tiers = {econ::SlaTier{"gold", 3.0, 2.0, 0.5, 0.5},
                 econ::SlaTier{"best-effort", 1.0, 1.0, 0.0, 0.5}};
  // 40 jobs x 3 stage tasks: an SLA is bought per job, so every member of
  // one job must land in the same tier.
  std::vector<workload::Task> tasks;
  for (std::size_t job = 0; job < 40; ++job) {
    for (std::size_t stage = 0; stage < 3; ++stage) {
      tasks.push_back(
          workload::Task{job * 3 + stage, 0, 0.0, 10.0, 1.0, job, stage});
    }
  }
  econ::AssignEconAttributes(tasks, model, 1, util::RngStream(3));
  for (std::size_t job = 0; job < 40; ++job) {
    EXPECT_EQ(tasks[job * 3 + 1].tier, tasks[job * 3].tier);
    EXPECT_EQ(tasks[job * 3 + 2].tier, tasks[job * 3].tier);
  }
}

TEST(AssignEconAttributes, RejectsTypesTheValueTableCannotPriceByName) {
  econ::EconModel model;
  model.type_values = {1.0};
  std::vector<workload::Task> tasks{workload::Task{0, 7, 0.0, 10.0}};
  try {
    econ::AssignEconAttributes(tasks, model, 5, util::RngStream(1));
    FAIL() << "expected TaskTypeRangeError";
  } catch (const workload::TaskTypeRangeError& error) {
    EXPECT_EQ(error.type(), 7u);
    EXPECT_EQ(error.num_types(), 5u);
    const std::string message = error.what();
    EXPECT_NE(message.find("econ value table"), std::string::npos) << message;
    EXPECT_NE(message.find("type 7"), std::string::npos) << message;
    EXPECT_NE(message.find("5 types"), std::string::npos) << message;
  }
}

// -- ProfitMeter --

TEST(ProfitMeter, AccountsOfferedRevenueAndEnergyBill) {
  econ::EconModel model;
  model.energy_price = 2.0;
  econ::ProfitMeter meter(model);
  const workload::Task paid{0, 0, 0.0, 100.0, 1.0,
                            workload::kSelfJob, 0, 5.0, 0};
  const workload::Task missed{1, 0, 0.0, 100.0, 1.0,
                              workload::kSelfJob, 0, 3.0, 0};
  meter.Offer(paid);
  meter.Offer(missed);
  EXPECT_DOUBLE_EQ(meter.value_offered(), 8.0);

  meter.Finish(paid, 50.0, /*earns=*/true);
  meter.Finish(missed, 150.0, /*earns=*/false);
  EXPECT_DOUBLE_EQ(meter.revenue(), 5.0);
  EXPECT_EQ(meter.paid_finishes(), 1u);
  EXPECT_EQ(meter.decayed_finishes(), 0u);

  meter.Settle(4.0);
  EXPECT_DOUBLE_EQ(meter.energy_cost(), 8.0);
  EXPECT_DOUBLE_EQ(meter.net_profit(), -3.0);
}

TEST(ProfitMeter, LateFinishInsideTheDecayWindowEarnsAFractionAndIsCounted) {
  econ::EconModel model;
  model.value_decay = 100.0;
  econ::ProfitMeter meter(model);
  const workload::Task task{0, 0, 0.0, 100.0, 1.0,
                            workload::kSelfJob, 0, 10.0, 0};
  meter.Offer(task);
  meter.Finish(task, 150.0, /*earns=*/true);
  EXPECT_DOUBLE_EQ(meter.revenue(), 5.0);
  EXPECT_EQ(meter.paid_finishes(), 1u);
  EXPECT_EQ(meter.decayed_finishes(), 1u);
}

TEST(ProfitMeter, EarnsFalseSuppressesRevenueEvenOnTime) {
  // The engine's within-energy verdict gates revenue: an on-time finish
  // past the budget crossing earns nothing, exactly like the paper's
  // completion accounting.
  const econ::EconModel model;
  econ::ProfitMeter meter(model);
  const workload::Task task{0, 0, 0.0, 100.0, 1.0,
                            workload::kSelfJob, 0, 10.0, 0};
  meter.Offer(task);
  meter.Finish(task, 50.0, /*earns=*/false);
  EXPECT_DOUBLE_EQ(meter.revenue(), 0.0);
  EXPECT_EQ(meter.paid_finishes(), 0u);
}

TEST(ProfitMeter, TracksPremiumTierOutcomes) {
  econ::EconModel model;
  model.tiers = {econ::SlaTier{"best-effort", 1.0, 1.0, 0.0, 0.5},
                 econ::SlaTier{"gold", 3.0, 2.0, 0.5, 0.5}};
  econ::ProfitMeter meter(model);
  const workload::Task plain{0, 0, 0.0, 100.0, 1.0,
                             workload::kSelfJob, 0, 1.0, 0};
  const workload::Task gold_hit{1, 0, 0.0, 100.0, 1.0,
                                workload::kSelfJob, 0, 3.0, 1};
  const workload::Task gold_miss{2, 0, 0.0, 100.0, 1.0,
                                 workload::kSelfJob, 0, 3.0, 1};
  meter.Offer(plain);
  meter.Offer(gold_hit);
  meter.Offer(gold_miss);
  EXPECT_EQ(meter.premium_total(), 2u);

  meter.Finish(plain, 50.0, true);
  meter.Finish(gold_hit, 50.0, true);
  meter.Finish(gold_miss, 150.0, true);  // late: not a premium on-time hit
  EXPECT_EQ(meter.premium_on_time(), 1u);
}

// -- value-density admission --

stream::AdmissionView EconView() {
  stream::AdmissionView view;
  view.now = 10.0;
  view.arrival = 10.0;
  view.deadline = 100.0;
  view.best_rho = 0.9;
  view.value = 10.0;
  view.cheapest_energy = 2.0;
  view.energy_price = 1.0;
  return view;
}

TEST(ValueDensityAdmission, AdmitsWhenValueCoversTheCheapestBill) {
  const auto policy = stream::MakeAdmissionPolicy("value-density",
                                                  stream::AdmissionOptions{});
  EXPECT_TRUE(policy->active());
  EXPECT_EQ(policy->Decide(EconView()), stream::AdmissionVerdict::kAdmit);
}

TEST(ValueDensityAdmission, DropsArrivalsAlreadyPastTheirDeadline) {
  const auto policy = stream::MakeAdmissionPolicy("value-density",
                                                  stream::AdmissionOptions{});
  stream::AdmissionView view = EconView();
  view.now = view.deadline;
  EXPECT_EQ(policy->Decide(view), stream::AdmissionVerdict::kDrop);
}

TEST(ValueDensityAdmission, DropsWhenValueCannotCoverTheCheapestBill) {
  const auto policy = stream::MakeAdmissionPolicy("value-density",
                                                  stream::AdmissionOptions{});
  stream::AdmissionView view = EconView();
  view.value = 1.5;  // bill = 2.0: running it loses money even on time
  EXPECT_EQ(policy->Decide(view), stream::AdmissionVerdict::kDrop);
}

TEST(ValueDensityAdmission, DefersWhenExpectedValueFallsShort) {
  const auto policy = stream::MakeAdmissionPolicy("value-density",
                                                  stream::AdmissionOptions{});
  stream::AdmissionView view = EconView();
  view.value = 3.0;
  view.best_rho = 0.5;  // expected 1.5 < bill 2.0, but on-time would pay
  EXPECT_EQ(policy->Decide(view), stream::AdmissionVerdict::kDefer);
}

TEST(ValueDensityAdmission, FairnessGuardForcesLongWaiters) {
  stream::AdmissionOptions options;
  options.fairness_wait = 20.0;
  const auto policy = stream::MakeAdmissionPolicy("value-density", options);
  stream::AdmissionView view = EconView();
  view.value = 1.5;  // would be dropped...
  view.now = view.arrival + 20.0;  // ...but has waited out the guard
  EXPECT_EQ(policy->Decide(view), stream::AdmissionVerdict::kAdmitForced);
}

TEST(ValueDensityAdmission, ZeroEconDefaultsAdmitEverything) {
  // Outside econ mode the view's value/price/cheapest-energy stay at their
  // zero defaults, and the rule must be vacuous (admit) — never dropping
  // tasks of a run that priced nothing.
  const auto policy = stream::MakeAdmissionPolicy("value-density",
                                                  stream::AdmissionOptions{});
  stream::AdmissionView view;
  view.deadline = 100.0;
  view.best_rho = 0.4;
  EXPECT_EQ(policy->Decide(view), stream::AdmissionVerdict::kAdmit);
}

// -- econ-greedy heuristic and SLA filter (shared fixture) --

class EconMappingTest : public ::testing::Test {
 protected:
  EconMappingTest()
      : cluster_({test::SimpleNode(1, 1, 1.0), test::SimpleNode(2, 1, 0.5)}),
        etc_(1, 2, {100.0, 150.0}),
        table_(cluster_, etc_, 0.25),
        cores_(cluster_.total_cores()) {}

  [[nodiscard]] core::MappingContext Context(double deadline) {
    task_ = workload::Task{0, 0, 0.0, deadline};
    return core::MappingContext(cluster_, table_, cores_, task_, 0.0);
  }

  cluster::Cluster cluster_;
  workload::EtcMatrix etc_;
  workload::TaskTypeTable table_;
  std::vector<robustness::CoreQueueModel> cores_;
  workload::Task task_;
};

TEST_F(EconMappingTest, EconGreedyWithoutAModelPicksTheCheapestCandidate) {
  core::EconGreedyHeuristic heuristic;
  core::MappingContext ctx = Context(400.0);
  const auto chosen = heuristic.Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  const auto cheapest = std::min_element(
      ctx.candidates().begin(), ctx.candidates().end(),
      [](const core::Candidate& a, const core::Candidate& b) {
        return a.eec < b.eec;
      });
  EXPECT_DOUBLE_EQ(chosen->eec, cheapest->eec);
}

TEST_F(EconMappingTest, EconGreedyMaximizesProfitDensity) {
  econ::EconModel model;
  model.type_values = {1.0};
  model.energy_price = 0.001;
  core::EconGreedyHeuristic heuristic;
  core::MappingContext ctx = Context(400.0);
  ctx.SetEconView(&model);
  task_.value = 5.0;
  const auto chosen = heuristic.Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  // The winner's (value * rho - price * EEC) / EEC must top every candidate.
  const double eec = std::max(chosen->eec, 1e-12);
  const double best = (task_.value * ctx.OnTimeProbability(*chosen) -
                       model.energy_price * eec) /
                      eec;
  for (const core::Candidate& candidate : ctx.candidates()) {
    const double e = std::max(candidate.eec, 1e-12);
    const double score =
        (task_.value * ctx.OnTimeProbability(candidate) -
         model.energy_price * e) /
        e;
    EXPECT_GE(best, score);
  }
}

TEST_F(EconMappingTest, EconGreedyReturnsNulloptOnEmptyCandidates) {
  core::EconGreedyHeuristic heuristic;
  core::MappingContext ctx = Context(400.0);
  ctx.candidates().clear();
  EXPECT_FALSE(heuristic.Select(ctx).has_value());
}

TEST_F(EconMappingTest, SlaFilterIsANoOpOutsideEconMode) {
  core::SlaFilter filter;
  core::MappingContext ctx = Context(150.0);
  const std::size_t before = ctx.candidates().size();
  filter.Apply(ctx);
  EXPECT_EQ(ctx.candidates().size(), before);
}

TEST_F(EconMappingTest, SlaFilterIsANoOpForZeroFloorTiers) {
  econ::EconModel model;
  model.type_values = {1.0};  // non-trivial, but the tier demands nothing
  core::SlaFilter filter;
  core::MappingContext ctx = Context(150.0);
  ctx.SetEconView(&model);
  const std::size_t before = ctx.candidates().size();
  filter.Apply(ctx);
  EXPECT_EQ(ctx.candidates().size(), before);
}

TEST_F(EconMappingTest, SlaFilterPrunesCandidatesBelowTheTierRhoFloor) {
  econ::EconModel model;
  model.tiers = {econ::SlaTier{"gold", 1.0, 1.0, 0.8, 1.0}};
  core::SlaFilter filter;
  // Deadline 150: node 0 at P0 (mean 100) clears 0.8 comfortably; node 1
  // at P0 (mean 150) sits near rho 0.5 and every deeper state is worse.
  core::MappingContext ctx = Context(150.0);
  ctx.SetEconView(&model);
  const std::size_t before = ctx.candidates().size();
  filter.Apply(ctx);
  ASSERT_FALSE(ctx.candidates().empty());
  EXPECT_LT(ctx.candidates().size(), before);
  for (const core::Candidate& candidate : ctx.candidates()) {
    EXPECT_GE(ctx.OnTimeProbability(candidate), 0.8);
  }
}

// -- profit-guard governor --

class RecordingHost final : public governor::GovernorHost {
 public:
  void SetPStateFloor(std::size_t flat_core,
                      cluster::PStateIndex floor) override {
    floors.emplace_back(flat_core, floor);
  }
  bool ParkIdleCore(std::size_t flat_core) override {
    parked.push_back(flat_core);
    return true;
  }
  void SetFairShareScale(double scale) override { scales.push_back(scale); }

  std::vector<std::pair<std::size_t, cluster::PStateIndex>> floors;
  std::vector<std::size_t> parked;
  std::vector<double> scales;
};

governor::GovernorObservation ProfitObservation(
    const std::vector<governor::CoreView>& cores) {
  governor::GovernorObservation obs;
  obs.now = 500.0;
  obs.consumed = 100.0;
  obs.budget = 1000.0;
  obs.cores = cores;
  return obs;
}

TEST(ProfitGuardGovernor, DeclaresCompletionAndTickCadence) {
  const auto gov = governor::MakeGovernor("profit-guard");
  EXPECT_TRUE(gov->cadence().on_completion);
  EXPECT_GT(gov->cadence().tick_period, 0.0);
}

TEST(ProfitGuardGovernor, StaysInertWithoutAnEnergyPrice) {
  const auto gov = governor::MakeGovernor("profit-guard");
  const std::vector<governor::CoreView> cores(2);
  RecordingHost host;
  gov->Govern(ProfitObservation(cores), host);  // energy_price = 0
  EXPECT_TRUE(host.floors.empty());
  EXPECT_TRUE(host.parked.empty());
}

TEST(ProfitGuardGovernor, RunsUncappedWhileTheMarginIsPositive) {
  const auto gov = governor::MakeGovernor("profit-guard");
  const std::vector<governor::CoreView> cores(3);
  governor::GovernorObservation obs = ProfitObservation(cores);
  obs.energy_price = 1.0;                // bill = 100
  obs.realized_revenue = 150.0;          // ratio 1.5 >= 1
  RecordingHost host;
  gov->Govern(obs, host);
  ASSERT_EQ(host.floors.size(), 3u);
  for (const auto& [core, floor] : host.floors) EXPECT_EQ(floor, 0u);
  EXPECT_TRUE(host.parked.empty());
}

TEST(ProfitGuardGovernor, DeepensTheFloorAndParksIdleCoresUnderLoss) {
  const auto gov = governor::MakeGovernor("profit-guard");
  std::vector<governor::CoreView> cores(3);
  cores[1].busy = true;
  cores[2].parked = true;
  governor::GovernorObservation obs = ProfitObservation(cores);
  obs.energy_price = 1.0;                // bill = 100
  obs.realized_revenue = 40.0;           // ratio 0.4: two bands under water
  RecordingHost host;
  gov->Govern(obs, host);
  ASSERT_EQ(host.floors.size(), 3u);
  // floor((1 - 0.4) / 0.25) + 1 = 3 bands of slowdown on every core.
  for (const auto& [core, floor] : host.floors) EXPECT_EQ(floor, 3u);
  // Only the idle, unparked core 0 is parked.
  EXPECT_EQ(host.parked, std::vector<std::size_t>{0});
}

TEST(ProfitGuardGovernor, FloorClampsToTheDeepestPState) {
  const auto gov = governor::MakeGovernor("profit-guard");
  const std::vector<governor::CoreView> cores(1);
  governor::GovernorObservation obs = ProfitObservation(cores);
  obs.energy_price = 1.0;
  obs.realized_revenue = 0.0;  // ratio 0: maximally under water
  RecordingHost host;
  gov->Govern(obs, host);
  ASSERT_EQ(host.floors.size(), 1u);
  EXPECT_EQ(host.floors[0].second, cluster::kNumPStates - 1);
}

// -- end-to-end: metering must not perturb the paper's metrics --

sim::SetupOptions EconSmallOptions() {
  sim::SetupOptions options;
  options.cluster.num_nodes = 3;
  options.cvb.num_task_types = 10;
  options.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(15, 30, 1.0 / 8.0, 1.0 / 48.0);
  return options;
}

const sim::ExperimentSetup& EconSmallSetup() {
  static const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(7, EconSmallOptions());
  return setup;
}

TEST(EconTrial, MeteringLeavesThePaperMetricsUntouched) {
  // Attaching a non-trivial model to a run whose policies are value-blind
  // (LL + en+rob, no admission, static governor) adds profit accounting and
  // nothing else: every paper metric of the trial is bit-identical.
  sim::RunOptions base;
  const sim::TrialResult plain =
      sim::RunSingleTrial(EconSmallSetup(), "LL", "en+rob", 0, base);

  sim::RunOptions econ_run;
  econ_run.econ_enabled = true;
  econ_run.econ.type_values = {1.0, 4.0};
  econ_run.econ.energy_price = 1e-6;
  const sim::TrialResult metered =
      sim::RunSingleTrial(EconSmallSetup(), "LL", "en+rob", 0, econ_run);

  EXPECT_TRUE(metered.econ.enabled);
  EXPECT_GT(metered.econ.value_offered, 0.0);
  EXPECT_GE(metered.econ.revenue, 0.0);
  EXPECT_DOUBLE_EQ(metered.econ.net_profit,
                   metered.econ.revenue - metered.econ.energy_cost);

  EXPECT_FALSE(plain.econ.enabled);
  EXPECT_EQ(plain.missed_deadlines, metered.missed_deadlines);
  EXPECT_EQ(plain.completed, metered.completed);
  EXPECT_EQ(plain.discarded, metered.discarded);
  EXPECT_DOUBLE_EQ(plain.total_energy, metered.total_energy);
}

TEST(EconTrial, TrivialModelBehavesExactlyLikeEconOff) {
  // Econ runs exactly when the model is non-trivial: an enabled all-zero
  // model and a disabled non-trivial one both run the all-zero model, and
  // the whole result matches the default run's, with no econ block.
  const std::string plain = sim::TrialResultToJson(sim::RunSingleTrial(
      EconSmallSetup(), "LL", "en+rob", 0, sim::RunOptions{}));

  sim::RunOptions trivial_run;
  trivial_run.econ_enabled = true;
  trivial_run.econ.type_values = {0.0, 0.0};
  sim::RunOptions disabled_run;
  disabled_run.econ.type_values = {1.0, 4.0};
  disabled_run.econ.energy_price = 1e-6;
  for (const sim::RunOptions& run : {trivial_run, disabled_run}) {
    const sim::TrialResult result =
        sim::RunSingleTrial(EconSmallSetup(), "LL", "en+rob", 0, run);
    EXPECT_FALSE(result.econ.enabled);
    EXPECT_EQ(sim::TrialResultToJson(result), plain);
  }
}

TEST(EconTrial, ProfitAccountingIsDeterministic) {
  sim::RunOptions run;
  run.econ_enabled = true;
  run.econ.type_values = {1.0, 4.0};
  run.econ.energy_price = 1e-6;
  run.econ.tiers = {econ::SlaTier{"gold", 3.0, 2.0, 0.0, 0.3},
                    econ::SlaTier{"best-effort", 1.0, 1.0, 0.0, 0.7}};
  const sim::TrialResult a =
      sim::RunSingleTrial(EconSmallSetup(), "MECT", "en+rob", 1, run);
  const sim::TrialResult b =
      sim::RunSingleTrial(EconSmallSetup(), "MECT", "en+rob", 1, run);
  EXPECT_EQ(a.econ, b.econ);
  EXPECT_GT(a.econ.premium_total, 0u);
}

TEST(EconTrial, EconGreedyIsUsableAsAGridHeuristic) {
  sim::RunOptions run;
  run.econ_enabled = true;
  run.econ.type_values = {1.0, 4.0};
  run.econ.energy_price = 1e-6;
  const sim::TrialResult result =
      sim::RunSingleTrial(EconSmallSetup(), "econ-greedy", "en+rob", 0, run);
  EXPECT_TRUE(result.econ.enabled);
  EXPECT_GT(result.completed, 0u);
}

}  // namespace
}  // namespace ecdra
