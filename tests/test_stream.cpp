// Streaming service mode: the replenishing energy account (exact clamped
// net-flow, emergency hysteresis), degraded-mode hysteresis on lost
// capacity, spec resolution, admission verdicts, the rho oracle and the
// holding pen's priority order, the typed mode/stream refusals, and the
// engine-level guarantees — deterministic streaming trials, fault requeues
// re-entering admission, a domain outage+repair cycle flipping degraded
// mode exactly once, the admission scan's rho counts, its empty-scan
// answer and its deep-validation audit, windowed trace records, and
// bit-identical checkpoint resume mid-stream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "batch/batch_runner.hpp"
#include "core/factory.hpp"
#include "fault/fault_model.hpp"
#include "fault/recovery.hpp"
#include "policy/scenario_spec.hpp"
#include "policy/stream_spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_runner.hpp"
#include "stream/admission.hpp"
#include "stream/degraded_mode.hpp"
#include "stream/energy_account.hpp"
#include "stream/holding_pen.hpp"
#include "stream/stream_config.hpp"
#include "test_support.hpp"

namespace ecdra {
namespace {

// ---------------------------------------------------------------------------
// EnergyAccount
// ---------------------------------------------------------------------------

TEST(EnergyAccount, ZeroRateOnlyDrains) {
  // rate 0 is the drain-only account (the spec layer refuses it; the
  // runtime supports it so a test can isolate the debit side).
  stream::EnergyAccount account(0.0, 100.0, 80.0, 5.0, 20.0);
  EXPECT_DOUBLE_EQ(account.available(), 80.0);
  account.AdvanceTo(10.0, 30.0);
  EXPECT_DOUBLE_EQ(account.available(), 50.0);
  account.AdvanceTo(25.0, 50.0);
  EXPECT_DOUBLE_EQ(account.available(), 0.0);
  EXPECT_DOUBLE_EQ(account.min_available(), 0.0);
  EXPECT_DOUBLE_EQ(account.accrued_total(25.0), 80.0);
}

TEST(EnergyAccount, CapBindsImmediatelyAndSpilledJoulesAreNotBanked) {
  // Born at the cap: an idle interval accrues nothing (the inflow spills).
  stream::EnergyAccount account(10.0, 100.0, 100.0, 0.0, 0.0);
  account.AdvanceTo(10.0, 0.0);
  EXPECT_DOUBLE_EQ(account.available(), 100.0);
  // Exactness of the clamped net-flow update: over the next 10 s the
  // account earns 100 J and spends 50 J. Accrue-then-debit would bank the
  // spilled inflow (clamp to 100, then subtract 50 -> 50); the net-flow
  // form stays pinned at the cap because inflow exceeds the draw the whole
  // interval.
  account.AdvanceTo(20.0, 50.0);
  EXPECT_DOUBLE_EQ(account.available(), 100.0);
  // Draw above inflow + balance: the balance goes negative (a deficit, not
  // a deadlock) and min_available records its depth.
  account.AdvanceTo(30.0, 250.0);
  EXPECT_DOUBLE_EQ(account.available(), -50.0);
  EXPECT_DOUBLE_EQ(account.min_available(), -50.0);
}

TEST(EnergyAccount, EmergencyHysteresisEntersBelowAndExitsAtThreshold) {
  // enter below 10, exit at or above 40.
  stream::EnergyAccount account(10.0, 100.0, 50.0, 10.0, 40.0);
  EXPECT_FALSE(account.emergency());

  // Drop to 5 (< enter): emergency begins at t = 10.
  account.AdvanceTo(10.0, 145.0);
  EXPECT_DOUBLE_EQ(account.available(), 5.0);
  EXPECT_TRUE(account.emergency());
  EXPECT_EQ(account.emergency_entries(), 1u);

  // Recover to 35 (>= enter but < exit): hysteresis holds the pin.
  account.AdvanceTo(15.0, 20.0);
  EXPECT_DOUBLE_EQ(account.available(), 35.0);
  EXPECT_TRUE(account.emergency());

  // Recover to 45 (>= exit): the pin releases; 10 s were spent pinned.
  account.AdvanceTo(20.0, 40.0);
  EXPECT_DOUBLE_EQ(account.available(), 45.0);
  EXPECT_FALSE(account.emergency());
  EXPECT_EQ(account.emergency_entries(), 1u);
  EXPECT_DOUBLE_EQ(account.emergency_seconds(20.0), 10.0);

  // A second dip is a second episode.
  account.AdvanceTo(30.0, 140.0);
  EXPECT_TRUE(account.emergency());
  EXPECT_EQ(account.emergency_entries(), 2u);
  EXPECT_DOUBLE_EQ(account.emergency_seconds(35.0), 15.0);
}

TEST(EnergyAccount, BornBelowThresholdIsAlreadyInEmergency) {
  stream::EnergyAccount account(10.0, 100.0, 5.0, 10.0, 40.0);
  EXPECT_TRUE(account.emergency());
  EXPECT_EQ(account.emergency_entries(), 1u);
}

// ---------------------------------------------------------------------------
// DegradedMode (lost-capacity hysteresis, the emergency mode's twin)
// ---------------------------------------------------------------------------

TEST(DegradedMode, HysteresisEntersAtEnterAndExitsAtOrBelowExit) {
  stream::DegradedMode mode(0.25, 0.10);
  EXPECT_FALSE(mode.active());

  // Below enter: nothing happens.
  EXPECT_FALSE(mode.Update(5.0, 0.20));
  EXPECT_FALSE(mode.active());

  // Reaching enter flips the mode on.
  EXPECT_TRUE(mode.Update(10.0, 0.25));
  EXPECT_TRUE(mode.active());
  EXPECT_EQ(mode.entries(), 1u);

  // Partial repair into the (exit, enter) band: hysteresis holds.
  EXPECT_FALSE(mode.Update(15.0, 0.15));
  EXPECT_TRUE(mode.active());

  // Falling to exit releases it; 10 s were spent degraded.
  EXPECT_TRUE(mode.Update(20.0, 0.10));
  EXPECT_FALSE(mode.active());
  EXPECT_EQ(mode.entries(), 1u);
  EXPECT_DOUBLE_EQ(mode.degraded_seconds(20.0), 10.0);

  // A second outage is a second episode.
  EXPECT_TRUE(mode.Update(30.0, 0.50));
  EXPECT_EQ(mode.entries(), 2u);
  EXPECT_DOUBLE_EQ(mode.degraded_seconds(35.0), 15.0);
}

TEST(DegradedMode, DefaultConstructionNeverEnters) {
  stream::DegradedMode mode;
  EXPECT_FALSE(mode.Update(0.0, 1.0));  // even a total outage
  EXPECT_FALSE(mode.active());
  EXPECT_EQ(mode.entries(), 0u);
}

TEST(DegradedMode, RejectsInvertedThresholds) {
  EXPECT_THROW(stream::DegradedMode(0.10, 0.25), std::invalid_argument);
  EXPECT_THROW(stream::DegradedMode(0.25, -0.1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ResolveStreamConfig
// ---------------------------------------------------------------------------

TEST(ResolveStreamConfig, DerivedFieldsScaleWithTheEnvironment) {
  policy::StreamSpec spec;
  spec.energy_rate = 100.0;
  const double t_avg = 50.0;
  const double last_arrival = 32000.0;
  const stream::StreamConfig config =
      stream::ResolveStreamConfig(spec, t_avg, last_arrival);
  EXPECT_TRUE(config.enabled);
  EXPECT_DOUBLE_EQ(config.window_length, 2000.0);  // max(50, 32000/16)
  EXPECT_DOUBLE_EQ(config.accrual_cap, 2.0 * 100.0 * 2000.0);
  EXPECT_DOUBLE_EQ(config.initial_energy, 100.0 * 2000.0);
  EXPECT_DOUBLE_EQ(config.emergency_enter, 0.05 * config.accrual_cap);
  EXPECT_DOUBLE_EQ(config.emergency_exit, 0.20 * config.accrual_cap);
  EXPECT_DOUBLE_EQ(config.admission_options.fairness_wait, 4.0 * t_avg);

  // A short trace falls back to t_avg so an average task can hide in the
  // window.
  const stream::StreamConfig short_trace =
      stream::ResolveStreamConfig(spec, t_avg, 100.0);
  EXPECT_DOUBLE_EQ(short_trace.window_length, 50.0);
}

TEST(ResolveStreamConfig, ExplicitFieldsPassThroughUnchanged) {
  policy::StreamSpec spec;
  spec.energy_rate = 80.0;
  spec.window_length = 500.0;
  spec.accrual_cap = 9000.0;
  spec.initial_energy = 123.0;
  spec.fairness_wait = 77.0;
  spec.admission = "rho";
  spec.defer_rho = 0.4;
  spec.drop_rho = 0.1;
  const stream::StreamConfig config =
      stream::ResolveStreamConfig(spec, 50.0, 32000.0);
  EXPECT_DOUBLE_EQ(config.window_length, 500.0);
  EXPECT_DOUBLE_EQ(config.accrual_cap, 9000.0);
  EXPECT_DOUBLE_EQ(config.initial_energy, 123.0);
  EXPECT_DOUBLE_EQ(config.admission_options.fairness_wait, 77.0);
  EXPECT_EQ(config.admission, "rho");
  EXPECT_DOUBLE_EQ(config.admission_options.defer_rho, 0.4);
  EXPECT_DOUBLE_EQ(config.admission_options.drop_rho, 0.1);
}

TEST(ResolveStreamConfig, InvalidSpecsThrow) {
  policy::StreamSpec no_rate;
  EXPECT_THROW((void)stream::ResolveStreamConfig(no_rate, 50.0, 1000.0),
               std::invalid_argument);

  policy::StreamSpec bad_hysteresis;
  bad_hysteresis.energy_rate = 10.0;
  bad_hysteresis.emergency_enter_fraction = 0.5;
  bad_hysteresis.emergency_exit_fraction = 0.2;  // exit < enter
  EXPECT_THROW((void)stream::ResolveStreamConfig(bad_hysteresis, 50.0, 1000.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Admission policies
// ---------------------------------------------------------------------------

TEST(Admission, NoneIsInactiveSoTheEngineSkipsTheRhoSweep) {
  const auto policy =
      stream::MakeAdmissionPolicy("none", stream::AdmissionOptions{});
  EXPECT_FALSE(policy->active());
  EXPECT_EQ(policy->Decide(stream::AdmissionView{}),
            stream::AdmissionVerdict::kAdmit);
}

TEST(Admission, RhoVerdictOrdering) {
  stream::AdmissionOptions options;
  options.defer_rho = 0.30;
  options.drop_rho = 0.05;
  options.fairness_wait = 100.0;
  const auto policy = stream::MakeAdmissionPolicy("rho", options);
  EXPECT_TRUE(policy->active());

  stream::AdmissionView view;
  view.now = 10.0;
  view.arrival = 10.0;
  view.deadline = 500.0;

  view.best_rho = stream::RhoOracle(0.80);
  EXPECT_EQ(policy->Decide(view), stream::AdmissionVerdict::kAdmit);
  view.best_rho = stream::RhoOracle(0.10);  // below defer, above drop
  EXPECT_EQ(policy->Decide(view), stream::AdmissionVerdict::kDefer);
  view.best_rho = stream::RhoOracle(0.01);  // below drop
  EXPECT_EQ(policy->Decide(view), stream::AdmissionVerdict::kDrop);

  // Fairness guard outranks the thresholds: a task that has waited past
  // fairness_wait is admitted regardless of rho.
  view.now = 120.0;
  view.best_rho = stream::RhoOracle(0.01);
  EXPECT_EQ(policy->Decide(view), stream::AdmissionVerdict::kAdmitForced);

  // An expired deadline outranks everything, including the guard.
  view.deadline = 110.0;
  EXPECT_EQ(policy->Decide(view), stream::AdmissionVerdict::kDrop);
}

TEST(Admission, RhoOracleAnswersThresholdQuestions) {
  // A default oracle answers from best_rho = 0; a fixed one from its value;
  // scale multiplies best_rho before the comparison.
  const stream::RhoOracle none;
  EXPECT_TRUE(none.Reaches(0.0));
  EXPECT_TRUE(none.Reaches(0.0, 0.0));
  EXPECT_FALSE(none.Reaches(1e-300));
  const stream::RhoOracle half(0.5);
  EXPECT_TRUE(half.Reaches(0.5));
  EXPECT_FALSE(half.Reaches(0.6));
  EXPECT_TRUE(half.Reaches(1.0, 2.0));
  EXPECT_FALSE(half.Reaches(1.5, 2.0));
  // Monotonicity needs a finite scale >= 0, and NaN answers no question.
  EXPECT_THROW((void)half.Reaches(0.1, -1.0), std::invalid_argument);
  EXPECT_THROW((void)half.Reaches(0.1, HUGE_VAL), std::invalid_argument);
  EXPECT_THROW((void)half.Reaches(std::nan("")), std::invalid_argument);
}

TEST(Admission, UnknownNameThrowsListingTheRegistry) {
  try {
    (void)stream::MakeAdmissionPolicy("bogus", stream::AdmissionOptions{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("bogus"), std::string::npos) << message;
    EXPECT_NE(message.find("rho"), std::string::npos) << message;
  }
}

// ---------------------------------------------------------------------------
// Holding pen
// ---------------------------------------------------------------------------

TEST(HoldingPen, PriorityOrderIsWaitPerJouleDescendingWithIdTieBreak) {
  stream::HoldingPen pen;
  // At now = 100: id 1 waited 90 for 10 J (9.0/J), id 2 waited 40 for 2 J
  // (20.0/J), id 3 ties id 1 exactly (45 for 5 J).
  pen.Add({.task_id = 1, .arrival = 10.0, .deadline = 500.0,
           .est_energy = 10.0});
  pen.Add({.task_id = 2, .arrival = 60.0, .deadline = 500.0,
           .est_energy = 2.0});
  pen.Add({.task_id = 3, .arrival = 55.0, .deadline = 500.0,
           .est_energy = 5.0});

  const std::vector<stream::PennedTask> ordered = pen.InPriorityOrder(100.0);
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0].task_id, 2u);  // 20.0 per joule
  EXPECT_EQ(ordered[1].task_id, 1u);  // 9.0 per joule, id tie-break
  EXPECT_EQ(ordered[2].task_id, 3u);  // 9.0 per joule
}

TEST(HoldingPen, PeakTracksTheDeepestFill) {
  stream::HoldingPen pen;
  pen.Add({.task_id = 1});
  pen.Add({.task_id = 2});
  EXPECT_EQ(pen.peak(), 2u);
  pen.Remove(1);
  pen.Remove(2);
  EXPECT_TRUE(pen.empty());
  EXPECT_EQ(pen.peak(), 2u);
  pen.Add({.task_id = 3});
  EXPECT_EQ(pen.peak(), 2u);
}

// ---------------------------------------------------------------------------
// Spec-layer refusals and round-trip
// ---------------------------------------------------------------------------

TEST(StreamSpec, FixedTraceRefusesAStreamBlockNamingTheFields) {
  policy::StreamSpec stream;
  stream.energy_rate = 80.0;
  stream.admission = "rho";
  try {
    policy::RequireStreamCompatible(policy::RunMode::kFixedTrace, stream);
    FAIL() << "expected StreamSpecError";
  } catch (const policy::StreamSpecError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("fixed"), std::string::npos) << message;
    EXPECT_NE(message.find("stream.energy_rate = 80"), std::string::npos)
        << message;
    EXPECT_NE(message.find("stream.admission = rho"), std::string::npos)
        << message;
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;  // one line
  }
}

TEST(StreamSpec, StreamModeRequiresARate) {
  EXPECT_THROW(policy::RequireStreamCompatible(policy::RunMode::kStream,
                                               policy::StreamSpec{}),
               policy::StreamSpecError);
  policy::StreamSpec with_rate;
  with_rate.energy_rate = 10.0;
  EXPECT_NO_THROW(
      policy::RequireStreamCompatible(policy::RunMode::kStream, with_rate));
  // A default block is fine everywhere.
  EXPECT_NO_THROW(policy::RequireStreamCompatible(policy::RunMode::kFixedTrace,
                                                  policy::StreamSpec{}));
}

TEST(StreamSpec, CanonicalTextRoundTripsTheStreamBlock) {
  policy::ScenarioSpec spec;
  spec.mode = policy::RunMode::kStream;
  spec.stream.energy_rate = 1234.5;
  spec.stream.window_length = 500.0;
  spec.stream.admission = "rho";
  spec.stream.defer_rho = 0.4;
  spec.stream.fairness_wait = 99.0;
  spec.stream.degraded_enter_fraction = 0.4;
  spec.stream.degraded_exit_fraction = 0.2;
  spec.stream.degraded_rho_scale = 2.0;

  const std::string text = policy::CanonicalSpecText(spec);
  const policy::ScenarioSpec parsed = policy::ParseScenarioSpec(text);
  EXPECT_EQ(parsed.mode, policy::RunMode::kStream);
  EXPECT_DOUBLE_EQ(parsed.stream.energy_rate, 1234.5);
  EXPECT_DOUBLE_EQ(parsed.stream.window_length, 500.0);
  EXPECT_EQ(parsed.stream.admission, "rho");
  EXPECT_DOUBLE_EQ(parsed.stream.defer_rho, 0.4);
  EXPECT_DOUBLE_EQ(parsed.stream.fairness_wait, 99.0);
  EXPECT_DOUBLE_EQ(parsed.stream.degraded_enter_fraction, 0.4);
  EXPECT_DOUBLE_EQ(parsed.stream.degraded_exit_fraction, 0.2);
  EXPECT_DOUBLE_EQ(parsed.stream.degraded_rho_scale, 2.0);
  // The round trip is a fixed point: re-emission is byte-identical.
  EXPECT_EQ(policy::CanonicalSpecText(parsed), text);
}

// ---------------------------------------------------------------------------
// Engine and runner integration
// ---------------------------------------------------------------------------

sim::SetupOptions SmallOptions() {
  sim::SetupOptions options;
  options.cluster.num_nodes = 3;
  options.cvb.num_task_types = 10;
  options.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(15, 30, 1.0 / 8.0, 1.0 / 48.0);
  return options;
}

/// A streaming RunOptions whose rate is tight enough to exercise the
/// account (scaled off the setup's fixed budget over the nominal horizon).
sim::RunOptions StreamRun(const sim::ExperimentSetup& setup, double scale) {
  double horizon = 0.0;
  for (const workload::ArrivalPhase& phase : setup.workload.arrivals.phases) {
    horizon += static_cast<double>(phase.num_tasks) / phase.rate;
  }
  sim::RunOptions run;
  run.mode = policy::RunMode::kStream;
  run.stream.energy_rate = scale * setup.energy_budget / horizon;
  return run;
}

void ExpectSameTrial(const sim::TrialResult& a, const sim::TrialResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.missed_deadlines, b.missed_deadlines);
  EXPECT_EQ(a.discarded, b.discarded);
  EXPECT_EQ(a.finished_late, b.finished_late);
  EXPECT_EQ(a.on_time_but_over_budget, b.on_time_but_over_budget);
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.stream, b.stream);  // StreamStats == is field-exact
}

TEST(StreamEngine, StreamingTrialIsDeterministic) {
  const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(7, SmallOptions());
  const sim::RunOptions run = StreamRun(setup, 0.5);
  const sim::TrialResult first =
      sim::RunSingleTrial(setup, "LL", "en+rob", 0, run);
  const sim::TrialResult second =
      sim::RunSingleTrial(setup, "LL", "en+rob", 0, run);
  EXPECT_TRUE(first.stream.enabled);
  EXPECT_GT(first.stream.windows, 0u);
  ExpectSameTrial(first, second);
}

TEST(StreamEngine, TightRateEntersEmergencyAndRecordsTheDeficit) {
  const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(7, SmallOptions());
  // Explicit knobs: a small opening balance and cap with an inflow well
  // below the trial's mean draw (~1.5 kW), so the account must dip below
  // the emergency threshold and run a deficit.
  sim::RunOptions run;
  run.mode = policy::RunMode::kStream;
  run.stream.energy_rate = 600.0;
  run.stream.accrual_cap = 50000.0;
  run.stream.initial_energy = 10000.0;
  run.stream.window_length = 200.0;
  const sim::TrialResult result =
      sim::RunSingleTrial(setup, "LL", "en+rob", 0, run);
  EXPECT_GT(result.stream.emergency_entries, 0u);
  EXPECT_GT(result.stream.emergency_seconds, 0.0);
  EXPECT_LT(result.stream.min_available, 0.0);
  // In stream mode the fixed-budget cutoff never fires; within-energy is
  // judged by the account balance instead.
  EXPECT_FALSE(result.energy_exhausted_at.has_value());
}

TEST(StreamEngine, WindowRecordsFlowThroughTheTraceSink) {
  const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(7, SmallOptions());
  sim::RunOptions run = StreamRun(setup, 0.5);
  run.num_trials = 1;
  run.trace_path = testing::TempDir() + "ecdra_stream_trace.jsonl";
  const sim::SweepResult sweep = sim::RunSweep(setup, "LL", "en+rob", run);
  ASSERT_TRUE(sweep.complete());

  std::ifstream is(run.trace_path);
  ASSERT_TRUE(is.good());
  std::size_t window_lines = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"event\":\"window\"") != std::string::npos) {
      ++window_lines;
    }
  }
  is.close();
  std::remove(run.trace_path.c_str());
  EXPECT_EQ(window_lines, sweep.results.at(0).stream.windows);
}

TEST(StreamEngine, FaultRequeuesReenterAdmissionNotThePen) {
  // Regression for the satellite guarantee: a fault-requeued task goes back
  // through the admission stage rather than jumping into (or past) the pen.
  // With defer_rho above any achievable rho, the only way anything ever
  // runs is the fairness guard (kAdmitForced). A fresh arrival can earn at
  // most one forced verdict — its wait is zero at arrival, so it is forced
  // only when released from the pen, and it is penned once. Any forced
  // count above window_size can therefore only come from stranded tasks
  // re-entering admission after a failure.
  const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(7, SmallOptions());
  sim::RunOptions run = StreamRun(setup, 1.0);
  run.stream.admission = "rho";
  run.stream.defer_rho = 1.5;   // everything defers (rho <= 1)
  run.stream.drop_rho = 0.0;    // nothing drops on rho
  run.stream.fairness_wait = 60.0;  // short guard so the pen keeps draining
  run.fault.mtbf = 400.0;
  run.fault.repair_time = 200.0;  // cores cycle, so failures keep stranding
  run.recovery = fault::RecoveryPolicy::kRequeueToScheduler;
  const sim::TrialResult result =
      sim::RunSingleTrial(setup, "LL", "en+rob", 0, run);
  ASSERT_GT(result.failures_injected, 0u);
  EXPECT_GT(result.tasks_remapped, 0u);
  EXPECT_GT(result.stream.forced_admissions, result.window_size)
      << "no fault-requeued task passed back through the admission stage; "
         "requeues are bypassing admission";
}

/// Deterministic single-type delta-pmf table (same scheme as test_fault):
/// execution time on node n at state s is base * time_multiplier(s) exactly.
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

TEST(StreamEngine, DomainOutageCycleFlipsDegradedModeExactlyOnce) {
  // Satellite (d): one domain outage + repair cycle enters and exits
  // degraded mode exactly once. The interior per-core failure and repair on
  // the already-dead core move fault-event traffic through the engine while
  // the lost fraction sits inside the hysteresis band — a flapping
  // implementation (enter/exit re-evaluated without memory) would count
  // extra episodes.
  const cluster::Cluster cluster(
      {test::SimpleNode(1, 1), test::SimpleNode(1, 1)});
  workload::TaskTypeTable table = DeltaTable(cluster, 10.0);
  std::vector<workload::Task> tasks = {workload::Task{0, 0, 0.0, 200.0},
                                       workload::Task{1, 0, 1.0, 200.0},
                                       workload::Task{2, 0, 40.0, 200.0}};
  core::ImmediateModeScheduler scheduler(
      cluster, table, core::MakeHeuristic("SQ", util::RngStream(1)), {}, 1e9,
      tasks.size());

  sim::TrialOptions options;
  options.energy_budget = 1e9;
  options.stream.enabled = true;
  options.stream.energy_rate = 1000.0;
  options.stream.accrual_cap = 1e9;
  options.stream.initial_energy = 1e6;
  options.stream.window_length = 100.0;
  options.stream.degraded_enter = 0.25;  // one lost core of two is 0.5
  options.stream.degraded_exit = 0.10;
  options.fault_domains = fault::DeriveNodeDomains(cluster);
  options.recovery = fault::RecoveryPolicy::kRequeueToScheduler;
  options.fault_schedule.events = {
      {5.0, fault::FaultEventKind::kDomainOutage, 0, 0, 0},
      {8.0, fault::FaultEventKind::kCoreFailure, 0, 0, 0},
      {12.0, fault::FaultEventKind::kCoreRepair, 0, 0, 0},
      {20.0, fault::FaultEventKind::kDomainRepair, 0, 0, 0},
  };

  sim::Engine engine(cluster, table, std::move(tasks), scheduler, options,
                     util::RngStream(7));
  const sim::TrialResult result = engine.Run();

  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.domain_outages, 1u);
  EXPECT_EQ(result.domain_repairs, 1u);
  ASSERT_TRUE(result.stream.enabled);
  EXPECT_EQ(result.stream.degraded_entries, 1u);
  EXPECT_DOUBLE_EQ(result.stream.degraded_seconds, 15.0);  // [5, 20)
}

/// Counted stream options with a rich account and the named admission
/// policy.
sim::TrialOptions AdmissionTrial(std::string admission) {
  sim::TrialOptions options;
  options.energy_budget = 1e9;
  options.collect_counters = true;
  options.stream.enabled = true;
  options.stream.energy_rate = 1000.0;
  options.stream.accrual_cap = 1e9;
  options.stream.initial_energy = 1e6;
  options.stream.window_length = 100.0;
  options.stream.admission = std::move(admission);
  return options;
}

TEST(StreamEngine, RhoAdmissionVisitsIdleCoresFirstAndStopsAtCertainty) {
  // rho admission with SQ and no filter: admission is the only rho consumer.
  // Its best rho is a max of values clamped to [0, 1], so it visits idle
  // cores first (ready pmf Delta(now)) and stops at the first exact 1.0.
  // Task 0 arrives on an idle cluster; task 1 arrives while core 0 runs
  // task 0 until t = 10, where it would finish at 20 > 12 (rho 0), and
  // finishes on the idle core 1 at 11 (rho 1); task 2 arrives on an idle
  // cluster again. Each admission costs one ProbSumLeq and one ReadyPmf
  // build, never the busy core's.
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  workload::TaskTypeTable table = DeltaTable(cluster, 10.0);
  std::vector<workload::Task> tasks = {workload::Task{0, 0, 0.0, 1000.0},
                                       workload::Task{1, 0, 1.0, 12.0},
                                       workload::Task{2, 0, 50.0, 1000.0}};
  core::ImmediateModeScheduler scheduler(
      cluster, table, core::MakeHeuristic("SQ", util::RngStream(1)), {}, 1e9,
      tasks.size());

  sim::Engine engine(cluster, table, std::move(tasks), scheduler,
                     AdmissionTrial("rho"), util::RngStream(7));
  const sim::TrialResult result = engine.Run();

  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.stream.deferred, 0u);
  EXPECT_EQ(result.stream.admission_dropped, 0u);
  EXPECT_EQ(result.counters.pmf_prob_sum_leq, 3u);
  EXPECT_EQ(result.counters.ready_pmf_misses, 3u);
}

/// One node of three cores, one task type with a two-point exec pmf:
/// {10, 20} x time_multiplier(s) with probability 1/2 each.
workload::TaskTypeTable TwoPointTable(const cluster::Cluster& cluster) {
  std::vector<pmf::Pmf> pmfs;
  for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
    const double m = cluster.node(0).pstates[s].time_multiplier;
    pmfs.push_back(test::TwoPoint(10.0 * m, 20.0 * m));
  }
  return workload::TaskTypeTable(1, 1, std::move(pmfs));
}

TEST(StreamEngine, RhoAdmissionAsksOnlyAsFarAsItsThresholds) {
  // rho admission with SQ and no filter: admission is the only rho consumer.
  // Tasks 0 and 1 arrive on an idle cluster (rho 1 on the first idle core)
  // and take two of the three cores. Task 2 arrives at t = 1 with deadline
  // 15: on the idle core it finishes at 11 or 21 (rho 0.5, strictly between
  // defer_rho 0.3 and 1), on the busy cores at 20 or later (rho 0). Its
  // two questions, rho >= 0.05 and rho >= 0.3, are both answered by the idle
  // core, so no busy core's ready pmf is built: one ProbSumLeq and one
  // ReadyPmf build per admission. Reading the max costs task 2 one of each
  // per available core (5 and 5 in total).
  const cluster::Cluster cluster({test::SimpleNode(1, 3)});
  const workload::TaskTypeTable table = TwoPointTable(cluster);
  std::vector<workload::Task> tasks = {workload::Task{0, 0, 0.0, 1000.0},
                                       workload::Task{1, 0, 0.0, 1000.0},
                                       workload::Task{2, 0, 1.0, 15.0}};
  core::ImmediateModeScheduler scheduler(
      cluster, table, core::MakeHeuristic("SQ", util::RngStream(1)), {}, 1e9,
      tasks.size());
  sim::Engine engine(cluster, table, std::move(tasks), scheduler,
                     AdmissionTrial("rho"), util::RngStream(7));
  const sim::TrialResult result = engine.Run();

  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.stream.deferred, 0u);
  EXPECT_EQ(result.stream.admission_dropped, 0u);
  EXPECT_EQ(result.counters.pmf_prob_sum_leq, 3u);
  EXPECT_EQ(result.counters.ready_pmf_misses, 3u);
}

TEST(StreamEngine, EmptyRhoScanAnswersFromZero) {
  // Both cores are down when the task arrives, so the scan visits no core
  // and best_rho is max(0, nothing) = 0. value-density under the all-zero
  // econ model asks 0 * best_rho >= 0 and admits; rho with both thresholds
  // at 0 asks best_rho >= 0 and admits. (An "exists a core" oracle would
  // defer the first and drop the second.) The mapping pipeline then finds
  // no available core and discards the task.
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  const workload::TaskTypeTable table = DeltaTable(cluster, 10.0);
  for (const char* admission : {"value-density", "rho"}) {
    std::vector<workload::Task> tasks = {workload::Task{0, 0, 1.0, 100.0}};
    core::ImmediateModeScheduler scheduler(
        cluster, table, core::MakeHeuristic("SQ", util::RngStream(1)), {},
        1e9, tasks.size());
    sim::TrialOptions options = AdmissionTrial(admission);
    options.stream.admission_options.drop_rho = 0.0;
    options.stream.admission_options.defer_rho = 0.0;
    options.fault_schedule.events = {
        {0.5, fault::FaultEventKind::kCoreFailure, 0, 0, 0},
        {0.5, fault::FaultEventKind::kCoreFailure, 1, 0, 0}};
    options.validation = validate::ValidationMode::kDeep;
    options.validation_fail_fast = true;

    sim::Engine engine(cluster, table, std::move(tasks), scheduler, options,
                       util::RngStream(7));
    const sim::TrialResult result = engine.Run();

    EXPECT_EQ(result.stream.deferred, 0u) << admission;
    EXPECT_EQ(result.stream.admission_dropped, 0u) << admission;
    EXPECT_EQ(result.discarded, 1u) << admission;
    EXPECT_TRUE(result.validation.ok()) << admission;
  }
}

TEST(StreamEngine, DeepValidationChecksEveryRhoAnswerAgainstTheFullMax) {
  // Fail-fast deep validation recomputes best_rho over every available core
  // and checks each oracle answer against it: a clean run executes those
  // checks and decides exactly like the unvalidated run.
  const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(7, SmallOptions());
  sim::RunOptions run = StreamRun(setup, 0.5);
  run.stream.admission = "rho";
  const sim::TrialResult off =
      sim::RunSingleTrial(setup, "LL", "en+rob", 0, run);
  run.validation = validate::ValidationMode::kDeep;
  run.validation_fail_fast = true;
  const sim::TrialResult deep =
      sim::RunSingleTrial(setup, "LL", "en+rob", 0, run);
  EXPECT_TRUE(deep.validation.ok());
  EXPECT_GT(deep.stream.deferred + deep.stream.admission_dropped, 0u);
  ExpectSameTrial(off, deep);
}

TEST(StreamRunner, RunOptionsFromSpecRefusesFixedTraceWithAStreamBlock) {
  policy::ScenarioSpec spec;
  spec.stream.energy_rate = 80.0;  // mode stays kFixedTrace
  EXPECT_THROW((void)sim::RunOptionsFromSpec(spec), policy::StreamSpecError);
}

TEST(StreamRunner, BatchRefusesAStreamBlockWithATypedOneLiner) {
  policy::ScenarioSpec spec;
  spec.stream.energy_rate = 80.0;
  try {
    (void)batch::BatchRunOptionsFromSpec(spec);
    FAIL() << "expected StreamSpecError";
  } catch (const policy::StreamSpecError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("batch"), std::string::npos) << message;
    EXPECT_NE(message.find("stream.energy_rate"), std::string::npos)
        << message;
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  }
}

TEST(StreamCheckpoint, FingerprintTracksModeAndStreamKnobs) {
  const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(7, SmallOptions());
  sim::RunOptions fixed;
  const sim::RunOptions stream_a = StreamRun(setup, 0.5);
  sim::RunOptions stream_b = stream_a;
  stream_b.stream.admission = "rho";

  const std::string fp_fixed = sim::ConfigFingerprint(setup, fixed);
  const std::string fp_a = sim::ConfigFingerprint(setup, stream_a);
  const std::string fp_b = sim::ConfigFingerprint(setup, stream_b);
  EXPECT_NE(fp_fixed, fp_a);
  EXPECT_NE(fp_a, fp_b);
  EXPECT_EQ(fp_a, sim::ConfigFingerprint(setup, stream_a));
}

TEST(StreamCheckpoint, ResumeMidStreamIsBitIdentical) {
  // Kill a 4-trial streaming sweep after two committed records (cutting the
  // third mid-write, i.e. mid-window), resume, and require every trial —
  // stream aggregates included — to match the uninterrupted run.
  const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(7, SmallOptions());
  sim::RunOptions run = StreamRun(setup, 0.5);
  run.num_trials = 4;
  run.stream.admission = "rho";

  const sim::SweepResult uninterrupted =
      sim::RunSweep(setup, "LL", "en+rob", run);
  ASSERT_TRUE(uninterrupted.complete());

  const std::string path =
      testing::TempDir() + "ecdra_stream_resume.jsonl";
  run.checkpoint_path = path;
  const sim::SweepResult full = sim::RunSweep(setup, "LL", "en+rob", run);
  ASSERT_TRUE(full.complete());

  // Keep the header + the first two trial records; cut the third in half.
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  is.close();
  ASSERT_GE(lines.size(), 4u);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << lines[0] << "\n" << lines[1] << "\n" << lines[2] << "\n"
       << lines[3].substr(0, lines[3].size() / 2);
  }

  const sim::CheckpointStore store =
      sim::CheckpointStore::Load(path, {.allow_partial_tail = true});
  EXPECT_TRUE(store.dropped_partial_tail());
  EXPECT_EQ(store.size(), 2u);
  run.checkpoint_path.clear();
  run.resume = &store;
  const sim::SweepResult resumed = sim::RunSweep(setup, "LL", "en+rob", run);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.trials_resumed, 2u);

  ASSERT_EQ(resumed.results.size(), uninterrupted.results.size());
  for (std::size_t i = 0; i < resumed.results.size(); ++i) {
    ExpectSameTrial(resumed.results[i], uninterrupted.results[i]);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ecdra
