// Tests for the observability layer: counter registry + thread-local
// activation, pmf-operation instrumentation, the JSON helpers, JSONL trace
// round-trips, and the scheduler/engine telemetry wiring.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/scheduler.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "pmf/pmf.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_runner.hpp"
#include "sim/metrics.hpp"
#include "test_support.hpp"

namespace ecdra {
namespace {

// ------------------------------- counters ---------------------------------

TEST(Counters, StartsEmptyAndTracksDerivedRates) {
  obs::Counters counters;
  EXPECT_TRUE(counters.empty());
  EXPECT_EQ(counters.decisions(), 0u);
  EXPECT_DOUBLE_EQ(counters.ready_pmf_hit_rate(), 0.0);

  counters.tasks_mapped = 3;
  counters.tasks_discarded = 2;
  counters.ready_pmf_hits = 3;
  counters.ready_pmf_misses = 1;
  EXPECT_FALSE(counters.empty());
  EXPECT_EQ(counters.decisions(), 5u);
  EXPECT_DOUBLE_EQ(counters.ready_pmf_hit_rate(), 0.75);
}

TEST(Counters, MergeAddsEverySlotIncludingDecisionTime) {
  // Set every registered slot to a distinct value through the field table,
  // so a newly added counter cannot silently escape Merge.
  obs::Counters a;
  obs::Counters b;
  std::uint64_t value = 1;
  for (const obs::CounterField& field : obs::CounterFields()) {
    a.*(field.slot) = value;
    b.*(field.slot) = 10 * value;
    ++value;
  }
  a.decision_seconds = 0.25;
  b.decision_seconds = 0.5;

  a.Merge(b);
  value = 1;
  for (const obs::CounterField& field : obs::CounterFields()) {
    EXPECT_EQ(a.*(field.slot), 11 * value) << field.name;
    ++value;
  }
  EXPECT_DOUBLE_EQ(a.decision_seconds, 0.75);
}

TEST(Counters, FieldTableCoversTheHeadlineSlots) {
  bool saw_mapped = false;
  bool saw_hits = false;
  bool saw_failures = false;
  bool saw_remapped = false;
  for (const obs::CounterField& field : obs::CounterFields()) {
    if (field.name == "tasks_mapped") saw_mapped = true;
    if (field.name == "ready_pmf_hits") saw_hits = true;
    if (field.name == "failures_injected") saw_failures = true;
    if (field.name == "tasks_remapped") saw_remapped = true;
  }
  EXPECT_TRUE(saw_mapped);
  EXPECT_TRUE(saw_hits);
  EXPECT_TRUE(saw_failures);
  EXPECT_TRUE(saw_remapped);
}

TEST(Counters, ScopeRoutesBumpsAndNests) {
  ASSERT_EQ(obs::ActiveCounters(), nullptr);
  obs::Bump(&obs::Counters::pmf_convolutions);  // no scope: no-op, no crash

  obs::Counters outer;
  {
    const obs::CountersScope outer_scope(&outer);
    obs::Bump(&obs::Counters::pmf_convolutions);
    EXPECT_EQ(outer.pmf_convolutions, 1u);

    {
      // A null scope leaves the outer counters active.
      const obs::CountersScope noop(nullptr);
      obs::Bump(&obs::Counters::pmf_convolutions);
      EXPECT_EQ(outer.pmf_convolutions, 2u);
    }

    obs::Counters inner;
    {
      const obs::CountersScope inner_scope(&inner);
      obs::Bump(&obs::Counters::pmf_convolutions);
      EXPECT_EQ(inner.pmf_convolutions, 1u);
      EXPECT_EQ(outer.pmf_convolutions, 2u);
    }
    EXPECT_EQ(obs::ActiveCounters(), &outer);
  }
  EXPECT_EQ(obs::ActiveCounters(), nullptr);
}

TEST(Counters, PmfOperationsCountOnlyInsideAScope) {
  const pmf::Pmf x = test::TwoPoint(1.0, 3.0);
  const pmf::Pmf y = test::TwoPoint(2.0, 4.0);

  (void)pmf::Convolve(x, y);
  (void)pmf::ProbSumLeq(x, y, 5.0);

  obs::Counters counters;
  {
    const obs::CountersScope scope(&counters);
    (void)pmf::Convolve(x, y);
    (void)pmf::ProbSumLeq(x, y, 5.0);
    (void)x.TruncateBelow(2.0);
    (void)x.Compact(10);  // support of 2 <= 10: no merge, not counted
    (void)pmf::Convolve(x, y).Compact(1);  // 4 impulses -> 1: counted
  }
  EXPECT_EQ(counters.pmf_convolutions, 2u);
  EXPECT_EQ(counters.pmf_prob_sum_leq, 1u);
  EXPECT_EQ(counters.pmf_truncations, 1u);
  EXPECT_EQ(counters.pmf_compactions, 1u);
}

// --------------------------------- json -----------------------------------

TEST(Json, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::json::Escape("plain"), "plain");
  EXPECT_EQ(obs::json::Escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json::Escape("line\nbreak\t!"), "line\\nbreak\\t!");
  EXPECT_EQ(obs::json::Escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Json, ParsesTheTraceSubset) {
  const auto value = obs::json::Parse(
      R"({"s":"x\"y","n":-1.5e2,"b":true,"z":null,"a":[1,2],"o":{"k":3}})");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->Find("s")->AsString(), "x\"y");
  EXPECT_DOUBLE_EQ(value->Find("n")->AsNumber(), -150.0);
  EXPECT_TRUE(value->Find("b")->AsBool());
  EXPECT_TRUE(value->Find("z")->is_null());
  ASSERT_EQ(value->Find("a")->AsArray().size(), 2u);
  EXPECT_DOUBLE_EQ(value->Find("a")->AsArray()[1].AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(value->Find("o")->Find("k")->AsNumber(), 3.0);
  EXPECT_EQ(value->Find("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(obs::json::Parse("").has_value());
  EXPECT_FALSE(obs::json::Parse("{").has_value());
  EXPECT_FALSE(obs::json::Parse("[1,]").has_value());
  EXPECT_FALSE(obs::json::Parse("{} trailing").has_value());
  EXPECT_FALSE(obs::json::Parse("{'single':1}").has_value());
}

// --------------------------------- trace ----------------------------------

obs::MappingDecisionRecord AssignedDecision() {
  obs::MappingDecisionRecord record;
  record.trial = 7;
  record.task_id = 42;
  record.time = 12.5;
  record.deadline = 99.0;
  record.assigned = true;
  record.flat_core = 3;
  record.pstate = 1;
  record.eet = 10.25;
  record.eec = 1025.0;
  record.rho = 0.875;
  record.candidates_generated = 40;
  record.stages = {{"en", 16, 24}, {"rob", 4, 20}};
  record.decision_us = 33.5;
  return record;
}

TEST(Trace, AssignedDecisionRoundTripsThroughJsonl) {
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sink.Record(AssignedDecision());

  std::string line = os.str();
  ASSERT_FALSE(line.empty());
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();

  const auto value = obs::json::Parse(line);
  ASSERT_TRUE(value.has_value()) << line;
  EXPECT_EQ(value->Find("event")->AsString(), "decision");
  EXPECT_DOUBLE_EQ(value->Find("trial")->AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(value->Find("task")->AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(value->Find("time")->AsNumber(), 12.5);
  EXPECT_DOUBLE_EQ(value->Find("deadline")->AsNumber(), 99.0);
  EXPECT_TRUE(value->Find("assigned")->AsBool());
  EXPECT_DOUBLE_EQ(value->Find("core")->AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(value->Find("pstate")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(value->Find("eet")->AsNumber(), 10.25);
  EXPECT_DOUBLE_EQ(value->Find("eec")->AsNumber(), 1025.0);
  EXPECT_DOUBLE_EQ(value->Find("rho")->AsNumber(), 0.875);
  EXPECT_DOUBLE_EQ(value->Find("candidates")->AsNumber(), 40.0);
  EXPECT_DOUBLE_EQ(value->Find("decision_us")->AsNumber(), 33.5);
  EXPECT_EQ(value->Find("discard_stage"), nullptr);

  const auto& stages = value->Find("stages")->AsArray();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].Find("filter")->AsString(), "en");
  EXPECT_DOUBLE_EQ(stages[0].Find("pruned")->AsNumber(), 16.0);
  EXPECT_DOUBLE_EQ(stages[0].Find("survivors")->AsNumber(), 24.0);
  EXPECT_EQ(stages[1].Find("filter")->AsString(), "rob");
}

TEST(Trace, DiscardedDecisionOmitsAssignmentFields) {
  obs::MappingDecisionRecord record;
  record.trial = 1;
  record.task_id = 5;
  record.assigned = false;
  record.discard_stage = "rob";
  record.candidates_generated = 40;
  record.stages = {{"en", 0, 40}, {"rob", 40, 0}};

  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sink.Record(record);

  const auto value = obs::json::Parse(
      std::string_view(os.str()).substr(0, os.str().size() - 1));
  ASSERT_TRUE(value.has_value());
  EXPECT_FALSE(value->Find("assigned")->AsBool());
  EXPECT_EQ(value->Find("discard_stage")->AsString(), "rob");
  EXPECT_EQ(value->Find("core"), nullptr);
  EXPECT_EQ(value->Find("pstate"), nullptr);
  EXPECT_EQ(value->Find("rho"), nullptr);
}

TEST(Trace, NonFiniteNumbersSerializeAsNull) {
  obs::MappingDecisionRecord record = AssignedDecision();
  record.eet = std::numeric_limits<double>::infinity();
  record.rho = std::nan("");

  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sink.Record(record);

  const auto value = obs::json::Parse(
      std::string_view(os.str()).substr(0, os.str().size() - 1));
  ASSERT_TRUE(value.has_value()) << os.str();
  EXPECT_TRUE(value->Find("eet")->is_null());
  EXPECT_TRUE(value->Find("rho")->is_null());
}

TEST(Trace, EnergySnapshotRoundTripsThroughJsonl) {
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sink.Record(obs::EnergySnapshotRecord{3, 100.5, 2500.0, 1e6, 997500.0});

  const auto value = obs::json::Parse(
      std::string_view(os.str()).substr(0, os.str().size() - 1));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->Find("event")->AsString(), "energy");
  EXPECT_DOUBLE_EQ(value->Find("trial")->AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(value->Find("time")->AsNumber(), 100.5);
  EXPECT_DOUBLE_EQ(value->Find("consumed")->AsNumber(), 2500.0);
  EXPECT_DOUBLE_EQ(value->Find("budget")->AsNumber(), 1e6);
  EXPECT_DOUBLE_EQ(value->Find("estimated_remaining")->AsNumber(), 997500.0);
}

TEST(Trace, FailureFaultEventRoundTripsThroughJsonl) {
  obs::FaultEventRecord record;
  record.trial = 4;
  record.time = 1234.5;
  record.kind = "failure";
  record.flat_core = 17;
  record.tasks_lost = 2;
  record.tasks_requeued = 3;

  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sink.Record(record);

  const auto value = obs::json::Parse(
      std::string_view(os.str()).substr(0, os.str().size() - 1));
  ASSERT_TRUE(value.has_value()) << os.str();
  EXPECT_EQ(value->Find("event")->AsString(), "fault");
  EXPECT_DOUBLE_EQ(value->Find("trial")->AsNumber(), 4.0);
  EXPECT_DOUBLE_EQ(value->Find("time")->AsNumber(), 1234.5);
  EXPECT_EQ(value->Find("kind")->AsString(), "failure");
  EXPECT_DOUBLE_EQ(value->Find("core")->AsNumber(), 17.0);
  EXPECT_DOUBLE_EQ(value->Find("tasks_lost")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(value->Find("tasks_requeued")->AsNumber(), 3.0);
  // Throttle-only field stays out of failure records.
  EXPECT_EQ(value->Find("pstate_floor"), nullptr);
}

TEST(Trace, ThrottleFaultEventCarriesFloorOnly) {
  obs::FaultEventRecord record;
  record.trial = 1;
  record.time = 10.0;
  record.kind = "throttle_start";
  record.flat_core = 5;
  record.pstate_floor = 2;

  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sink.Record(record);

  const auto value = obs::json::Parse(
      std::string_view(os.str()).substr(0, os.str().size() - 1));
  ASSERT_TRUE(value.has_value()) << os.str();
  EXPECT_EQ(value->Find("kind")->AsString(), "throttle_start");
  EXPECT_DOUBLE_EQ(value->Find("pstate_floor")->AsNumber(), 2.0);
  EXPECT_EQ(value->Find("tasks_lost"), nullptr);
  EXPECT_EQ(value->Find("tasks_requeued"), nullptr);
}

TEST(Trace, RemapDecisionCarriesFlagAndBaselineOmitsIt) {
  obs::MappingDecisionRecord record = AssignedDecision();
  record.remap = true;

  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sink.Record(record);
  sink.Record(AssignedDecision());  // baseline: no remap key at all

  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const auto remapped = obs::json::Parse(line);
  ASSERT_TRUE(remapped.has_value());
  ASSERT_NE(remapped->Find("remap"), nullptr);
  EXPECT_TRUE(remapped->Find("remap")->AsBool());
  ASSERT_TRUE(std::getline(lines, line));
  const auto plain = obs::json::Parse(line);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->Find("remap"), nullptr);
}

TEST(Trace, SynchronizedSinkForwardsFaultRecords) {
  std::ostringstream os;
  obs::JsonlTraceSink inner(os);
  const std::unique_ptr<obs::TraceSink> sink = obs::MakeSynchronized(inner);
  obs::FaultEventRecord record;
  record.kind = "repair";
  sink->Record(record);
  sink->Flush();
  const auto value = obs::json::Parse(
      std::string_view(os.str()).substr(0, os.str().size() - 1));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->Find("event")->AsString(), "fault");
  EXPECT_EQ(value->Find("kind")->AsString(), "repair");
}

TEST(Trace, SynchronizedSinkForwardsRecords) {
  std::ostringstream os;
  obs::JsonlTraceSink inner(os);
  const std::unique_ptr<obs::TraceSink> sink = obs::MakeSynchronized(inner);
  sink->Record(AssignedDecision());
  sink->Record(obs::EnergySnapshotRecord{});
  sink->Flush();
  std::istringstream lines(os.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(obs::json::Parse(line).has_value()) << line;
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(Trace, OpenJsonlTraceFileRejectsBadPaths) {
  EXPECT_THROW((void)obs::OpenJsonlTraceFile("/nonexistent-dir/trace.jsonl"),
               std::invalid_argument);
}

/// `jsonl` with every decision_us value (a wall-clock reading) blanked.
std::string WithoutDecisionTimes(std::string jsonl) {
  const std::string key = "\"decision_us\":";
  for (std::size_t at = jsonl.find(key); at != std::string::npos;
       at = jsonl.find(key, at)) {
    at += key.size();
    jsonl.erase(at, jsonl.find_first_of(",}", at) - at);
  }
  return jsonl;
}

TEST(Trace, TracePathWritesWhatAJsonlSinkWrites) {
  // A small trial with faults, a governor, streaming and econ emits all six
  // record kinds; the trace file RunSweep opens must hold exactly what a
  // JsonlTraceSink over a string stream writes for the same trial.
  sim::SetupOptions environment;
  environment.cluster.num_nodes = 3;
  environment.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(15, 30, 1.0 / 8.0, 1.0 / 48.0);
  const sim::ExperimentSetup setup =
      sim::BuildExperimentSetup(14, environment);
  sim::RunOptions run;
  run.num_trials = 1;
  run.num_threads = 1;
  run.governor = "budget-feedback";
  run.mode = policy::RunMode::kStream;
  run.stream.energy_rate = 6000.0;
  run.stream.admission = "value-density";
  run.fault.mtbf = 2e4;
  run.fault.repair_time = 500.0;
  run.fault.throttle_interval = 1e4;
  run.fault.throttle_duration = 500.0;
  run.fault.domain_mtbf = 4000.0;
  run.fault.domain_repair_time = 500.0;
  run.recovery = fault::RecoveryPolicy::kMigrateQueued;
  run.econ_enabled = true;
  run.econ.type_values = {1.0, 5.0, 20.0};
  run.econ.energy_price = 1e-6;

  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sim::RunOptions to_stream = run;
  to_stream.trace_sink = &sink;
  (void)sim::RunSingleTrial(setup, "LL", "en+rob", 0, to_stream);
  const std::string expected = os.str();
  for (const char* kind :
       {"decision", "energy", "fault", "governor", "window", "profit"}) {
    EXPECT_NE(expected.find("{\"event\":\"" + std::string(kind) + "\""),
              std::string::npos)
        << kind;
  }

  run.trace_path = testing::TempDir() + "ecdra_obs_trace_path.jsonl";
  ASSERT_TRUE(sim::RunSweep(setup, "LL", "en+rob", run).complete());
  std::ifstream is(run.trace_path, std::ios::binary);
  ASSERT_TRUE(is.good());
  const std::string written((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
  is.close();
  std::remove(run.trace_path.c_str());
  EXPECT_EQ(WithoutDecisionTimes(written), WithoutDecisionTimes(expected));
}

// ------------------------- scheduler/engine wiring -------------------------

/// Deterministic single-type delta-pmf table (same scheme as test_engine).
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

/// Filter that removes every candidate (to force an attributed discard).
class RejectAllFilter final : public core::Filter {
 public:
  void Apply(core::MappingContext& ctx) override { ctx.candidates().clear(); }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "reject-all";
  }
};

class ObsEngineTest : public ::testing::Test {
 protected:
  ObsEngineTest()
      : cluster_(test::SingleCoreCluster()), table_(DeltaTable(cluster_, 10.0)) {}

  [[nodiscard]] sim::TrialResult Run(
      std::vector<workload::Task> tasks, sim::TrialOptions options,
      std::vector<std::unique_ptr<core::Filter>> filters = {}) {
    core::ImmediateModeScheduler scheduler(
        cluster_, table_, core::MakeHeuristic("SQ", util::RngStream(1)),
        std::move(filters), 1e9, tasks.size());
    options.energy_budget = 1e9;
    sim::Engine engine(cluster_, table_, std::move(tasks), scheduler, options,
                       util::RngStream(7));
    return engine.Run();
  }

  cluster::Cluster cluster_;
  workload::TaskTypeTable table_;
};

TEST_F(ObsEngineTest, CountersStayZeroWhenCollectionIsOff) {
  const sim::TrialResult result =
      Run({workload::Task{0, 0, 1.0, 100.0}}, sim::TrialOptions());
  EXPECT_TRUE(result.counters.empty());
}

TEST_F(ObsEngineTest, CountersRecordMappingsSwitchesAndPmfWork) {
  sim::TrialOptions options;
  options.collect_counters = true;
  // The "rob" filter asks whether each candidate's on-time probability
  // reaches 0.5. With delta pmfs the mean/variance bound decides every
  // candidate whose completion is not within rounding slack of the deadline,
  // so the first task's deadline sits just past its P4 completion: that
  // candidate alone takes the ProbSumLeq hot path. Nothing is pruned.
  const double tight = 1.0 + table_.MeanExec(0, 0, 4) + 1e-9;
  const sim::TrialResult result =
      Run({workload::Task{0, 0, 1.0, tight}, workload::Task{1, 0, 2.0, 100.0}},
          options, core::MakeFilterChain("rob"));
  const obs::Counters& counters = result.counters;
  EXPECT_EQ(counters.tasks_mapped, 2u);
  EXPECT_EQ(counters.tasks_discarded, 0u);
  // One core x 5 P-states enumerated per arrival.
  EXPECT_EQ(counters.candidates_generated, 10u);
  EXPECT_EQ(counters.pruned_energy + counters.pruned_robustness +
                counters.pruned_other,
            0u);
  // Idle P4 -> P0 for the first task; the second reuses P0.
  EXPECT_GE(counters.pstate_switches, 1u);
  // Candidate evaluation exercises the pmf hot path.
  EXPECT_GT(counters.pmf_prob_sum_leq, 0u);
  EXPECT_EQ(counters.pmf_prob_sum_leq, 1u);
  EXPECT_EQ(counters.rho_bound_kept, 9u);
  EXPECT_EQ(counters.rho_bound_pruned, 0u);
  EXPECT_GE(counters.decision_seconds, 0.0);
  EXPECT_EQ(counters.decisions(), 2u);
}

TEST_F(ObsEngineTest, DiscardsAreAttributedToTheEmptyingStage) {
  sim::TrialOptions options;
  options.collect_counters = true;
  std::vector<std::unique_ptr<core::Filter>> filters;
  filters.push_back(std::make_unique<RejectAllFilter>());
  const sim::TrialResult result =
      Run({workload::Task{0, 0, 1.0, 100.0}}, options, std::move(filters));
  EXPECT_EQ(result.counters.tasks_discarded, 1u);
  EXPECT_EQ(result.counters.pruned_other, 5u);
  EXPECT_EQ(result.counters.discarded_by_other, 1u);
  EXPECT_EQ(result.discarded, 1u);
}

TEST_F(ObsEngineTest, TraceEmitsOneDecisionAndOneSnapshotPerArrival) {
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sim::TrialOptions options;
  options.collect_counters = true;
  options.trace_sink = &sink;
  options.trial_index = 9;
  std::vector<std::unique_ptr<core::Filter>> filters;
  filters.push_back(std::make_unique<RejectAllFilter>());
  (void)Run({workload::Task{0, 0, 1.0, 100.0},
             workload::Task{1, 0, 2.0, 100.0}},
            options, std::move(filters));

  std::istringstream lines(os.str());
  std::string line;
  std::size_t decisions = 0;
  std::size_t snapshots = 0;
  while (std::getline(lines, line)) {
    const auto value = obs::json::Parse(line);
    ASSERT_TRUE(value.has_value()) << line;
    EXPECT_DOUBLE_EQ(value->Find("trial")->AsNumber(), 9.0);
    const std::string& event = value->Find("event")->AsString();
    if (event == "decision") {
      EXPECT_DOUBLE_EQ(value->Find("task")->AsNumber(),
                       static_cast<double>(decisions));
      EXPECT_FALSE(value->Find("assigned")->AsBool());
      EXPECT_EQ(value->Find("discard_stage")->AsString(), "reject-all");
      EXPECT_DOUBLE_EQ(value->Find("candidates")->AsNumber(), 5.0);
      const auto& stages = value->Find("stages")->AsArray();
      ASSERT_EQ(stages.size(), 1u);
      EXPECT_EQ(stages[0].Find("filter")->AsString(), "reject-all");
      EXPECT_DOUBLE_EQ(stages[0].Find("pruned")->AsNumber(), 5.0);
      EXPECT_DOUBLE_EQ(stages[0].Find("survivors")->AsNumber(), 0.0);
      EXPECT_GE(value->Find("decision_us")->AsNumber(), 0.0);
      ++decisions;
    } else {
      EXPECT_EQ(event, "energy");
      ++snapshots;
    }
  }
  EXPECT_EQ(decisions, 2u);
  EXPECT_EQ(snapshots, 2u);
}

TEST_F(ObsEngineTest, AssignedTraceRecordsCarryTheChosenCandidate) {
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  sim::TrialOptions options;
  options.trace_sink = &sink;  // trace without counters is allowed
  (void)Run({workload::Task{0, 0, 1.0, 100.0}}, options);

  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const auto value = obs::json::Parse(line);
  ASSERT_TRUE(value.has_value()) << line;
  EXPECT_TRUE(value->Find("assigned")->AsBool());
  EXPECT_DOUBLE_EQ(value->Find("core")->AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(value->Find("pstate")->AsNumber(), 0.0);  // SQ picks P0
  EXPECT_DOUBLE_EQ(value->Find("eet")->AsNumber(), 10.0);    // delta(10)
  EXPECT_DOUBLE_EQ(value->Find("rho")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(value->Find("time")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(value->Find("deadline")->AsNumber(), 100.0);
}

// ------------------------------ aggregation --------------------------------

TEST(SummaryStatistics, SummarizeTrialsAveragesAndMergesCounters) {
  sim::TrialResult a;
  a.missed_deadlines = 10;
  a.completed = 90;
  a.discarded = 4;
  a.cancelled = 2;
  a.total_energy = 1000.0;
  a.makespan = 50.0;
  a.counters.tasks_mapped = 96;
  a.counters.ready_pmf_hits = 30;

  sim::TrialResult b;
  b.missed_deadlines = 20;
  b.completed = 80;
  b.discarded = 6;
  b.cancelled = 0;
  b.total_energy = 3000.0;
  b.makespan = 70.0;
  b.counters.tasks_mapped = 94;
  b.counters.ready_pmf_hits = 10;

  const std::vector<sim::TrialResult> trials{a, b};
  const sim::SummaryStatistics summary = sim::SummarizeTrials(trials);
  EXPECT_EQ(summary.trials, 2u);
  EXPECT_DOUBLE_EQ(summary.mean_missed, 15.0);
  EXPECT_DOUBLE_EQ(summary.mean_completed, 85.0);
  EXPECT_DOUBLE_EQ(summary.mean_discarded, 5.0);
  EXPECT_DOUBLE_EQ(summary.mean_cancelled, 1.0);
  EXPECT_DOUBLE_EQ(summary.mean_energy, 2000.0);
  EXPECT_DOUBLE_EQ(summary.mean_makespan, 60.0);
  EXPECT_EQ(summary.counters.tasks_mapped, 190u);
  EXPECT_EQ(summary.counters.ready_pmf_hits, 40u);
}

TEST(SummaryStatistics, SummarizeTrialsRequiresAtLeastOneTrial) {
  const std::vector<sim::TrialResult> empty;
  EXPECT_THROW((void)sim::SummarizeTrials(empty), std::invalid_argument);
}

TEST(SummaryStatistics, SummarizeTrialsAveragesProfitFields) {
  sim::TrialResult a;
  a.econ.enabled = true;
  a.econ.revenue = 100.0;
  a.econ.energy_cost = 40.0;
  a.econ.net_profit = 60.0;
  a.econ.value_offered = 500.0;

  sim::TrialResult b;
  b.econ.enabled = true;
  b.econ.revenue = 20.0;
  b.econ.energy_cost = 60.0;
  b.econ.net_profit = -40.0;  // a losing trial: means stay signed
  b.econ.value_offered = 300.0;

  const std::vector<sim::TrialResult> trials{a, b};
  const sim::SummaryStatistics summary = sim::SummarizeTrials(trials);
  EXPECT_EQ(summary.econ_trials, 2u);
  EXPECT_DOUBLE_EQ(summary.mean_revenue, 60.0);
  EXPECT_DOUBLE_EQ(summary.mean_energy_cost, 50.0);
  EXPECT_DOUBLE_EQ(summary.mean_net_profit, 10.0);
  EXPECT_DOUBLE_EQ(summary.mean_value_offered, 400.0);
}

TEST(SummaryStatistics, EconTrialsCountsOnlyMeteredTrials) {
  // A sweep mixing econ-on and econ-off trials (e.g. a resume across a
  // config change would be refused, but a grid can mix series): the means
  // average over all trials, while econ_trials reports how many actually
  // metered — the summary printer keys its econ block off it.
  sim::TrialResult metered;
  metered.econ.enabled = true;
  metered.econ.revenue = 30.0;
  metered.econ.net_profit = 30.0;
  const sim::TrialResult plain;  // econ off: all-zero profit fields

  const std::vector<sim::TrialResult> mixed{metered, plain};
  const sim::SummaryStatistics summary = sim::SummarizeTrials(mixed);
  EXPECT_EQ(summary.econ_trials, 1u);
  EXPECT_DOUBLE_EQ(summary.mean_revenue, 15.0);
  EXPECT_DOUBLE_EQ(summary.mean_net_profit, 15.0);

  const std::vector<sim::TrialResult> plain_only{plain};
  const sim::SummaryStatistics none = sim::SummarizeTrials(plain_only);
  EXPECT_EQ(none.econ_trials, 0u);
  EXPECT_DOUBLE_EQ(none.mean_revenue, 0.0);
}

TEST(SummaryStatistics, AllDroppedEconTrialBillsWithoutRevenue) {
  // Every task dropped or missed: no revenue, but the trial still burned
  // (and is billed for) idle energy — net profit is the full negative bill.
  sim::TrialResult starved;
  starved.econ.enabled = true;
  starved.econ.energy_cost = 75.0;
  starved.econ.net_profit = -75.0;
  starved.econ.value_offered = 800.0;

  const std::vector<sim::TrialResult> trials{starved};
  const sim::SummaryStatistics summary = sim::SummarizeTrials(trials);
  EXPECT_EQ(summary.econ_trials, 1u);
  EXPECT_DOUBLE_EQ(summary.mean_revenue, 0.0);
  EXPECT_DOUBLE_EQ(summary.mean_net_profit, -75.0);
  EXPECT_DOUBLE_EQ(summary.mean_value_offered, 800.0);
}

}  // namespace
}  // namespace ecdra
