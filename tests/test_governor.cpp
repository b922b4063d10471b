// The governor subsystem (src/governor): registry resolution, the inert
// "static" baseline, each built-in control loop's observable actions
// (counters + JSONL trace), the host's action semantics (park refusal,
// no-op dedup), custom cadences through ECDRA_REGISTER_GOVERNOR, and the
// fair-share-scale plumbing into the energy filter.
#include "governor/governor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment_runner.hpp"

namespace ecdra {
namespace {

sim::SetupOptions SmallOptions() {
  sim::SetupOptions options;
  options.cluster.num_nodes = 3;
  options.cvb.num_task_types = 10;
  options.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(15, 30, 1.0 / 8.0, 1.0 / 48.0);
  return options;
}

const sim::ExperimentSetup& SmallSetup() {
  static const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(7, SmallOptions());
  return setup;
}

sim::TrialResult RunWithGovernor(const std::string& governor,
                                 obs::TraceSink* sink = nullptr) {
  sim::RunOptions options;
  options.collect_counters = true;
  options.governor = governor;
  options.trace_sink = sink;
  return sim::RunSingleTrial(SmallSetup(), "LL", "en+rob", 0, options);
}

TEST(GovernorRegistry, BuiltInsAreRegistered) {
  const std::vector<std::string> names = governor::GovernorRegistry().Names();
  for (const std::string expected :
       {"static", "race-to-idle", "budget-feedback", "deadline-aware"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing built-in governor " << expected;
  }
}

TEST(GovernorRegistry, UnknownNameThrowsListingTheRegistry) {
  try {
    (void)governor::MakeGovernor("no-such-governor");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no-such-governor"), std::string::npos) << message;
    EXPECT_NE(message.find("static"), std::string::npos) << message;
  }
}

TEST(Governor, StaticDeclaresNoCadenceAndStaysInert) {
  const std::unique_ptr<governor::Governor> gov =
      governor::MakeGovernor("static");
  EXPECT_FALSE(gov->cadence().any());

  const sim::TrialResult result = RunWithGovernor("static");
  EXPECT_EQ(result.counters.governor_invocations, 0u);
  EXPECT_EQ(result.counters.governor_pstate_caps, 0u);
  EXPECT_EQ(result.counters.governor_cores_parked, 0u);
  EXPECT_EQ(result.counters.governor_allowance_changes, 0u);
}

TEST(Governor, StaticIsBitIdenticalToTheDefaultTrial) {
  // RunOptions.governor defaults to "static"; spelling it out must not
  // perturb a single byte of the result (the golden paper-grid fixture
  // proves the same against the pre-governor build at paper scale).
  sim::RunOptions options;
  options.collect_counters = true;
  sim::TrialResult base =
      sim::RunSingleTrial(SmallSetup(), "LL", "en+rob", 0, options);
  sim::TrialResult explicit_static = RunWithGovernor("static");
  // decision_seconds is the one wall-clock (non-deterministic) counter.
  base.counters.decision_seconds = 0.0;
  explicit_static.counters.decision_seconds = 0.0;
  EXPECT_EQ(sim::TrialResultToJson(base),
            sim::TrialResultToJson(explicit_static));
}

TEST(Governor, RaceToIdleParksIdleCoresAndChangesEnergy) {
  const sim::TrialResult base = RunWithGovernor("static");
  const sim::TrialResult raced = RunWithGovernor("race-to-idle");
  EXPECT_GT(raced.counters.governor_invocations, 0u);
  EXPECT_GT(raced.counters.governor_cores_parked, 0u);
  EXPECT_EQ(raced.counters.governor_pstate_caps, 0u);
  // Parking goes through the ordinary SwitchPState path, so the nu lists
  // record more transitions and idle draw disappears from Eq. 1/2.
  EXPECT_GT(raced.counters.pstate_switches, base.counters.pstate_switches);
  EXPECT_LT(raced.total_energy, base.total_energy);
}

TEST(Governor, RaceToIdleDegradesToNoOpUnderPowerGatedIdle) {
  // Under IdlePolicy::kPowerGated an idle core already draws nothing, so
  // ParkIdleCore refuses every request and the counter stays zero.
  sim::RunOptions options;
  options.collect_counters = true;
  options.governor = "race-to-idle";
  options.idle_policy = sim::IdlePolicy::kPowerGated;
  const sim::TrialResult result =
      sim::RunSingleTrial(SmallSetup(), "LL", "en+rob", 0, options);
  EXPECT_GT(result.counters.governor_invocations, 0u);
  EXPECT_EQ(result.counters.governor_cores_parked, 0u);
}

TEST(Governor, BudgetFeedbackActsAndTracesItsActions) {
  std::ostringstream trace_text;
  obs::JsonlTraceSink sink(trace_text);
  const sim::TrialResult result = RunWithGovernor("budget-feedback", &sink);
  EXPECT_GT(result.counters.governor_invocations, 0u);
  EXPECT_GT(result.counters.governor_allowance_changes, 0u);

  // Every counted action appears as one {"event":"governor"} JSONL record
  // whose action-specific fields parse back.
  std::uint64_t caps = 0;
  std::uint64_t parks = 0;
  std::uint64_t allowances = 0;
  std::istringstream lines(trace_text.str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto value = obs::json::Parse(line);
    ASSERT_TRUE(value.has_value()) << "unparseable trace line: " << line;
    const auto* event = value->Find("event");
    ASSERT_NE(event, nullptr);
    if (event->AsString() != "governor") continue;
    EXPECT_EQ(value->Find("governor")->AsString(), "budget-feedback");
    const std::string action = value->Find("action")->AsString();
    if (action == "cap") {
      ++caps;
      EXPECT_NE(value->Find("core"), nullptr);
      EXPECT_NE(value->Find("pstate_floor"), nullptr);
    } else if (action == "park") {
      ++parks;
      EXPECT_NE(value->Find("core"), nullptr);
    } else if (action == "allowance") {
      ++allowances;
      EXPECT_GT(value->Find("scale")->AsNumber(), 0.0);
    } else {
      FAIL() << "unknown governor action " << action;
    }
  }
  EXPECT_EQ(caps, result.counters.governor_pstate_caps);
  EXPECT_EQ(parks, result.counters.governor_cores_parked);
  EXPECT_EQ(allowances, result.counters.governor_allowance_changes);
}

TEST(Governor, DeadlineAwareCapsOnlyWhenSlackTolerates) {
  const sim::TrialResult result = RunWithGovernor("deadline-aware");
  EXPECT_GT(result.counters.governor_invocations, 0u);
  // The slack-gated controller caps P-states but never parks or touches
  // the fair share.
  EXPECT_EQ(result.counters.governor_cores_parked, 0u);
  EXPECT_EQ(result.counters.governor_allowance_changes, 0u);
}

// -- Custom governors through the public registration macro --

/// Ticks every 50 time units and records what the host reports back.
class ProbeGovernor final : public governor::Governor {
 public:
  static inline std::uint64_t invocations = 0;
  static inline std::uint64_t park_accepted = 0;
  static inline std::uint64_t park_refused = 0;
  static inline bool observation_ok = true;

  [[nodiscard]] std::string_view name() const override { return "test-probe"; }
  [[nodiscard]] governor::GovernorCadence cadence() const override {
    return governor::GovernorCadence{.tick_period = 50.0};
  }

  void Govern(const governor::GovernorObservation& observation,
              governor::GovernorHost& host) override {
    ++invocations;
    observation_ok = observation_ok && observation.budget > 0.0 &&
                     observation.consumed >= 0.0 &&
                     observation.cluster != nullptr &&
                     observation.cores.size() == observation.queues.size() &&
                     !observation.cores.empty();
    // Park every idle core twice: the second request must be refused (the
    // core is already parked), exercising the host's no-op dedup.
    for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
      if (observation.cores[flat].busy || observation.cores[flat].parked) {
        continue;
      }
      if (host.ParkIdleCore(flat)) {
        ++park_accepted;
        host.ParkIdleCore(flat) ? ++park_accepted : ++park_refused;
      }
    }
    // Unchanged re-caps and re-scales must not count as actions.
    host.SetPStateFloor(0, 0);
    host.SetFairShareScale(1.0);
  }

  static void Reset() {
    invocations = 0;
    park_accepted = 0;
    park_refused = 0;
    observation_ok = true;
  }
};

ECDRA_REGISTER_GOVERNOR("test-probe",
                        [] { return std::make_unique<ProbeGovernor>(); });

TEST(Governor, TickCadenceInvokesOncePerPeriodWhileWorkRemains) {
  ProbeGovernor::Reset();
  const sim::TrialResult result = RunWithGovernor("test-probe");
  EXPECT_EQ(result.counters.governor_invocations, ProbeGovernor::invocations);
  EXPECT_GT(ProbeGovernor::invocations, 1u);
  EXPECT_TRUE(ProbeGovernor::observation_ok);
  // Ticks stop once all arrivals and active tasks resolve, so the tick
  // count is bounded by makespan / period (+1 for the first tick).
  EXPECT_LE(ProbeGovernor::invocations,
            static_cast<std::uint64_t>(result.makespan / 50.0) + 1);
}

TEST(Governor, HostRefusesDoublePark) {
  ProbeGovernor::Reset();
  const sim::TrialResult result = RunWithGovernor("test-probe");
  EXPECT_GT(ProbeGovernor::park_accepted, 0u);
  EXPECT_EQ(ProbeGovernor::park_refused, ProbeGovernor::park_accepted);
  EXPECT_EQ(result.counters.governor_cores_parked,
            ProbeGovernor::park_accepted);
}

TEST(Governor, UnchangedActionsAreNotCounted) {
  ProbeGovernor::Reset();
  const sim::TrialResult result = RunWithGovernor("test-probe");
  // SetPStateFloor(0, 0) and SetFairShareScale(1.0) on every tick match
  // the current state, so the cap/allowance counters stay zero.
  EXPECT_EQ(result.counters.governor_pstate_caps, 0u);
  EXPECT_EQ(result.counters.governor_allowance_changes, 0u);
}

/// Halves the fair share once; everything else untouched.
class TightenGovernor final : public governor::Governor {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "test-tighten";
  }
  [[nodiscard]] governor::GovernorCadence cadence() const override {
    return governor::GovernorCadence{.on_assignment = true};
  }
  void Govern(const governor::GovernorObservation&,
              governor::GovernorHost& host) override {
    host.SetFairShareScale(0.5);
  }
};

ECDRA_REGISTER_GOVERNOR("test-tighten",
                        [] { return std::make_unique<TightenGovernor>(); });

TEST(Governor, FairShareScaleTightensTheEnergyFilter) {
  // The default small setup's budget is generous enough that the energy
  // filter never prunes; shrink it so the fair share actually binds.
  sim::SetupOptions tight = SmallOptions();
  tight.budget_task_count = 25.0;
  const sim::ExperimentSetup setup = sim::BuildExperimentSetup(7, tight);
  sim::RunOptions options;
  options.collect_counters = true;
  const sim::TrialResult base =
      sim::RunSingleTrial(setup, "LL", "en+rob", 0, options);
  options.governor = "test-tighten";
  const sim::TrialResult tightened =
      sim::RunSingleTrial(setup, "LL", "en+rob", 0, options);
  // Halving every task's allowance makes the energy filter strictly more
  // aggressive: it can only prune more candidates, and the scale change is
  // counted exactly once (0.5 is set on the first invocation, then no-ops).
  EXPECT_EQ(tightened.counters.governor_allowance_changes, 1u);
  EXPECT_GT(tightened.counters.pruned_energy, base.counters.pruned_energy);
}

TEST(Governor, EngineRejectsUnknownGovernorName) {
  sim::RunOptions options;
  options.governor = "no-such-governor";
  EXPECT_THROW((void)sim::RunSingleTrial(SmallSetup(), "LL", "en+rob", 0,
                                         options),
               std::invalid_argument);
}

TEST(Governor, GovernorFieldReachesTheCheckpointFingerprint) {
  sim::RunOptions base;
  sim::RunOptions raced = base;
  raced.governor = "race-to-idle";
  EXPECT_NE(sim::ConfigFingerprint(SmallSetup(), base),
            sim::ConfigFingerprint(SmallSetup(), raced));
}

}  // namespace
}  // namespace ecdra
