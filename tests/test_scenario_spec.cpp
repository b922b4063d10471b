// The declarative ScenarioSpec: canonical serialization round-trips
// byte-stably, parse diagnostics name the offending line, the fingerprint
// covers exactly the result-shaping subset (grid/harness knobs excluded),
// and the checkpoint ConfigFingerprint is the same hash — one recipe, one
// fingerprint, every consumer.
#include "policy/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/paper_config.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment_runner.hpp"

namespace ecdra {
namespace {

/// A non-default value, spelled canonically, for every row of the spec
/// field table. EveryRowRoundTripsAndFingerprintsAsDeclared fails when a
/// row is added without an entry here, so a new knob cannot skip the
/// round-trip and fingerprint checks. Values are valid on SmallSpec() so
/// each one can also build an environment and run options.
const std::map<std::string, std::string, std::less<>>& NonDefaultValues() {
  static const std::map<std::string, std::string, std::less<>> values = {
      {"seed", "77"},
      {"env.cluster.num_nodes", "4"},
      {"env.cluster.min_processors", "2"},
      {"env.cluster.max_processors", "3"},
      {"env.cluster.min_cores_per_processor", "2"},
      {"env.cluster.max_cores_per_processor", "3"},
      {"env.cluster.min_power_efficiency", "0.85"},
      {"env.cluster.max_power_efficiency", "0.99"},
      {"env.cluster.min_step_gain", "0.1"},
      {"env.cluster.max_step_gain", "0.3"},
      {"env.cluster.min_frequency_fraction", "0.5"},
      {"env.cluster.min_p0_power_watts", "120"},
      {"env.cluster.max_p0_power_watts", "140"},
      {"env.cluster.min_low_voltage", "0.9"},
      {"env.cluster.max_low_voltage", "1.2"},
      {"env.cluster.min_high_voltage", "1.3"},
      {"env.cluster.max_high_voltage", "1.6"},
      {"env.cvb.num_task_types", "12"},
      {"env.cvb.task_mean", "500"},
      {"env.cvb.task_cov", "0.3"},
      {"env.cvb.machine_cov", "0.2"},
      {"env.discretize.num_impulses", "16"},
      {"env.discretize.tail_clip", "1e-05"},
      {"env.workload.arrivals", "30@0.14285714285714285,60@0.03225806451612903"},
      {"env.workload.load_factor_scale", "1.25"},
      {"env.workload.priorities", "1@0.7,4@0.3"},
      {"env.workload.jobs.enabled", "true"},
      {"env.workload.jobs.widths", "2@0.5,4@0.5"},
      {"env.workload.jobs.depths", "1@0.5,2@0.5"},
      {"env.workload.jobs.deadline_scale", "1.5"},
      {"env.budget_task_count", "800"},
      {"env.exec_cov", "0.4"},
      {"run.idle_policy", "gated"},
      {"run.cancel_policy", "hopeless"},
      {"run.pstate_transition_latency", "0.25"},
      {"run.power_cov", "0.1"},
      {"run.governor", "budget-feedback"},
      {"run.filter.en.low_multiplier", "1.1"},
      {"run.filter.en.mid_multiplier", "1.05"},
      {"run.filter.en.high_multiplier", "1.3"},
      {"run.filter.en.low_depth", "0.7"},
      {"run.filter.en.high_depth", "1.4"},
      {"run.filter.en.scale_by_priority", "true"},
      {"run.filter.en.priority_baseline", "2"},
      {"run.filter.rho_thresh", "0.65"},
      {"run.fault.mtbf", "5000"},
      {"run.fault.lifetime", "weibull"},
      {"run.fault.weibull_shape", "1.7"},
      {"run.fault.repair_time", "120"},
      {"run.fault.throttle_interval", "300"},
      {"run.fault.throttle_duration", "30"},
      {"run.fault.throttle_floor", "3"},
      {"run.fault.horizon", "9999"},
      {"run.fault.domain_mtbf", "20000"},
      {"run.fault.domain_repair_time", "600"},
      {"run.fault.cascade_throttle", "true"},
      {"run.fault.domains", "rackA:0-2,rackB:3-4"},
      {"run.recovery", "migrate"},
      {"run.jobs.placement", "serial"},
      {"run.mode", "stream"},
      {"stream.energy_rate", "1234.5"},
      {"stream.accrual_cap", "9000"},
      {"stream.initial_energy", "500"},
      {"stream.window_length", "250"},
      {"stream.emergency_enter", "0.1"},
      {"stream.emergency_exit", "0.3"},
      {"stream.admission", "rho"},
      {"stream.defer_rho", "0.4"},
      {"stream.drop_rho", "0.1"},
      {"stream.fairness_wait", "700"},
      {"stream.degraded_enter", "0.5"},
      {"stream.degraded_exit", "0.2"},
      {"stream.degraded_rho_scale", "2"},
      {"env.econ.values", "1,4,0.5"},
      {"env.econ.tiers", "gold@3@2@0.8@0.2,best-effort@1@1@0@0.8"},
      {"run.econ.enabled", "true"},
      {"run.econ.energy_price", "2.5e-06"},
      {"run.econ.value_decay", "150"},
      {"grid.heuristics", "LL,MECT"},
      {"grid.filter_variants", "en,en+rob"},
      {"grid.batch_heuristics", "MinMinCT"},
      {"harness.trials", "7"},
      {"harness.validation", "cheap"},
  };
  return values;
}

/// A paper spec shrunk so BuildExperimentSetup stays fast, in stream mode
/// so RunOptionsFromSpec accepts any stream block set on top of it.
policy::ScenarioSpec SmallSpec() {
  policy::ScenarioSpec spec = experiment::PaperScenario();
  spec.environment.cluster.num_nodes = 3;
  spec.environment.cvb.num_task_types = 10;
  spec.environment.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(10, 20, 1.0 / 8.0, 1.0 / 48.0);
  spec.mode = policy::RunMode::kStream;
  spec.stream.energy_rate = 100.0;
  return spec;
}

/// The checkpoint header's ConfigFingerprint of the run `spec` describes.
std::string CheckpointFingerprint(const policy::ScenarioSpec& spec) {
  return sim::ConfigFingerprint(sim::BuildExperimentSetup(spec),
                                sim::RunOptionsFromSpec(spec));
}

TEST(ScenarioSpec, EveryRowRoundTripsAndFingerprintsAsDeclared) {
  std::vector<std::string_view> keys;
  for (const policy::SpecField& field : policy::SpecFields()) {
    keys.push_back(field.key);
  }
  std::vector<std::string_view> listed;
  for (const auto& [key, value] : NonDefaultValues()) listed.push_back(key);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, listed) << "every table row needs a NonDefaultValues entry";
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "duplicate key in the field table";

  const policy::ScenarioSpec base;
  const std::string base_text = policy::CanonicalSpecText(base);
  const std::string base_fingerprint = policy::SpecFingerprint(base);
  policy::ScenarioSpec everything = SmallSpec();
  for (const policy::SpecField& field : policy::SpecFields()) {
    SCOPED_TRACE(std::string(field.key));
    const std::string& value = NonDefaultValues().find(field.key)->second;
    ASSERT_NE(value, field.codec.format(base)) << "not a non-default value";

    policy::ScenarioSpec changed = base;
    field.codec.parse(changed, value);
    EXPECT_EQ(field.codec.format(changed), value) << "not canonically spelled";
    const std::string text = policy::CanonicalSpecText(changed);
    EXPECT_NE(text, base_text);
    EXPECT_EQ(policy::CanonicalSpecText(policy::ParseScenarioSpec(text)), text);
    EXPECT_EQ(policy::SpecFingerprint(changed) != base_fingerprint,
              field.fingerprinted());

    // The checkpoint fingerprint carries the row exactly as the spec does:
    // RunOptionsFromSpec and ConfigFingerprint drop nothing.
    policy::ScenarioSpec runnable = SmallSpec();
    field.codec.parse(runnable, value);
    EXPECT_EQ(CheckpointFingerprint(runnable),
              policy::SpecFingerprint(runnable));
    field.codec.parse(everything, value);
  }
  const std::string text = policy::CanonicalSpecText(everything);
  EXPECT_EQ(policy::CanonicalSpecText(policy::ParseScenarioSpec(text)), text);
  EXPECT_EQ(CheckpointFingerprint(everything),
            policy::SpecFingerprint(everything));
}

TEST(ScenarioSpec, SerializeParseSerializeIsByteStable) {
  for (const policy::ScenarioSpec& spec :
       {policy::ScenarioSpec{}, experiment::PaperScenario(), SmallSpec()}) {
    const std::string text = policy::CanonicalSpecText(spec);
    const policy::ScenarioSpec parsed = policy::ParseScenarioSpec(text);
    EXPECT_EQ(policy::CanonicalSpecText(parsed), text);
    // The fingerprint survives the round-trip too (it reads the same
    // fields), so a parsed spec resumes the original's checkpoints.
    EXPECT_EQ(policy::SpecFingerprint(parsed), policy::SpecFingerprint(spec));
  }
}

TEST(ScenarioSpec, ParseToleratesCommentsWhitespaceAndDefaults) {
  const policy::ScenarioSpec parsed = policy::ParseScenarioSpec(
      "# a comment\n"
      "ecdra-scenario v1\n"
      "\n"
      "  seed =  42  \n"
      "# another comment\n"
      "run.filter.rho_thresh = 0.75\n");
  EXPECT_EQ(parsed.master_seed, 42u);
  EXPECT_EQ(parsed.filter_options.robustness_threshold, 0.75);
  // Unset keys keep their defaults.
  EXPECT_EQ(parsed.num_trials, 50u);
  EXPECT_EQ(parsed.environment.cvb.task_mean,
            policy::ScenarioSpec{}.environment.cvb.task_mean);
}

TEST(ScenarioSpec, ParseDiagnosticsNameTheOffendingLine) {
  try {
    (void)policy::ParseScenarioSpec("not-a-header\nseed = 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("not-a-header"),
              std::string::npos)
        << error.what();
  }

  try {
    (void)policy::ParseScenarioSpec("ecdra-scenario v1\nno.such.key = 3\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("no.such.key"), std::string::npos)
        << error.what();
  }

  try {
    (void)policy::ParseScenarioSpec("ecdra-scenario v1\nseed = banana\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("seed = banana"),
              std::string::npos)
        << error.what();
  }

  EXPECT_THROW((void)policy::ParseScenarioSpec(""), std::invalid_argument);
}

TEST(ScenarioSpec, MalformedTierTokensNameTheExpectedShape) {
  try {
    (void)policy::ParseScenarioSpec(
        "ecdra-scenario v1\nenv.econ.tiers = gold@3@2\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what())
                  .find("name@vmult@smult@rhofloor@prob"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScenarioSpec, RangeChecksRefuseSpecLinesLikeTheirFlags) {
  // Each line is refused with the same reason its CLI flag gives, and the
  // diagnostic names the line. Non-finite numbers are refused everywhere:
  // the canonical text could not spell them back.
  const std::pair<std::string, std::string> cases[] = {
      {"run.fault.mtbf = -5", "'-5' must be >= 0"},
      {"run.filter.rho_thresh = nan", "'nan' is not a finite number"},
      {"stream.energy_rate = inf", "'inf' is not a finite number"},
      {"env.cvb.task_mean = -inf", "is not a finite number"},
      {"run.fault.throttle_floor = 5", "must be < 5"},
      {"stream.degraded_rho_scale = 0.5", "must be >= 1"},
      {"env.workload.jobs.deadline_scale = 0.9", "must be >= 1"},
      {"env.workload.jobs.widths = 0@1", "shape values must be >= 1"},
      {"env.workload.jobs.depths = 2@0", "class probabilities must be > 0"},
      {"env.workload.jobs.widths =", "must not be empty"},
      {"env.econ.tiers = gold@3@2@1.5@1", "rho floors must be in [0, 1]"},
      {"env.econ.tiers = gold@-3@2@0.5@1", "tier multipliers must be >= 0"},
      {"env.econ.tiers = gold@3@2@0.5@0", "tier probabilities must be > 0"},
      {"env.econ.values = 1,-2", "'-2' must be >= 0"},
      {"run.governor =", "must not be empty"},
      {"harness.trials = 0", "must be >= 1"},
  };
  for (const auto& [line, reason] : cases) {
    SCOPED_TRACE(line);
    try {
      (void)policy::ParseScenarioSpec("ecdra-scenario v1\n" + line + "\n");
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(reason), std::string::npos) << message;
      EXPECT_NE(message.find("'" + line + "'"), std::string::npos) << message;
    }
  }
}

TEST(ScenarioSpec, BuildExperimentSetupRecordsItsRecipe) {
  policy::ScenarioSpec spec;
  spec.master_seed = 5;
  spec.environment.cluster.num_nodes = 3;
  spec.environment.cvb.num_task_types = 10;
  spec.environment.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(10, 20, 1.0 / 8.0, 1.0 / 48.0);
  spec.environment.exec_cov = 0.33;

  const sim::ExperimentSetup setup = sim::BuildExperimentSetup(spec);
  EXPECT_EQ(setup.master_seed, 5u);
  EXPECT_EQ(setup.environment.cluster.num_nodes, 3u);
  EXPECT_EQ(setup.environment.exec_cov, 0.33);
  // The recorded recipe reproduces the identical environment.
  const sim::ExperimentSetup again =
      sim::BuildExperimentSetup(setup.master_seed, setup.environment);
  EXPECT_EQ(again.t_avg, setup.t_avg);
  EXPECT_EQ(again.p_avg, setup.p_avg);
  EXPECT_EQ(again.energy_budget, setup.energy_budget);
}

TEST(Fnv1a64, MatchesKnownVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(policy::Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(policy::Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(policy::Fnv1a64Hex(""), "cbf29ce484222325");
}

}  // namespace
}  // namespace ecdra
