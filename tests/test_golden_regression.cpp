// Golden regression over the paper grid: recomputes the FNV-1a hash of
// every per-trial result JSON for the full (mode, heuristic, filter
// variant) cross product at paper scale and compares against the
// checked-in fixture (tests/golden/paper_grid.txt). Any change to
// scheduling semantics — candidate enumeration order, filter arithmetic,
// RNG substream derivation, energy accounting — flips at least one hash.
//
// Intentional semantic changes regenerate the fixture:
//   ECDRA_REGEN_GOLDENS=1 ./test_golden_regression
// rewrites the file in the source tree and fails once, so a regeneration is
// always a visible diff, never a silent drift.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "batch/batch_runner.hpp"
#include "econ/econ_model.hpp"
#include "experiment/paper_config.hpp"
#include "policy/scenario_spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment_runner.hpp"

namespace ecdra {
namespace {

constexpr std::size_t kTrialsPerCell = 2;

using GoldenKey = std::tuple<std::string, std::string, std::string,
                             std::size_t>;  // mode, heuristic, variant, trial

std::map<GoldenKey, std::string> ComputeGrid() {
  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  const policy::PolicyGrid grid = experiment::PaperScenario().grid;
  std::map<GoldenKey, std::string> hashes;

  sim::RunOptions run;
  run.num_trials = kTrialsPerCell;
  // Pinned explicitly: the fixture was generated before the governor layer
  // existed, so the "static" (all-off cadence) governor reproducing it
  // bit-for-bit proves the layer is inert until opted into.
  run.governor = "static";
  for (const std::string& heuristic : grid.heuristics) {
    for (const std::string& variant : grid.filter_variants) {
      const std::vector<sim::TrialResult> trials =
          sim::RunTrials(setup, heuristic, variant, run);
      for (std::size_t t = 0; t < trials.size(); ++t) {
        hashes[{"immediate", heuristic, variant, t}] =
            policy::Fnv1a64Hex(sim::TrialResultToJson(trials[t]));
      }
    }
  }

  for (const std::string& heuristic : batch::BatchHeuristicNames()) {
    for (const std::string& variant : grid.filter_variants) {
      batch::BatchRunOptions options;
      options.num_trials = kTrialsPerCell;
      options.filter_variant = variant;
      const std::vector<sim::TrialResult> trials =
          batch::RunBatchTrials(setup, heuristic, options);
      for (std::size_t t = 0; t < trials.size(); ++t) {
        hashes[{"batch", heuristic, variant, t}] =
            policy::Fnv1a64Hex(sim::TrialResultToJson(trials[t]));
      }
    }
  }
  return hashes;
}

std::map<GoldenKey, std::string> LoadFixture(const std::string& path,
                                             std::vector<std::string>* header) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "cannot read golden fixture " << path;
  std::map<GoldenKey, std::string> golden;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line.front() == '#') {
      if (header != nullptr) header->push_back(line);
      continue;
    }
    std::istringstream fields(line);
    std::string mode, heuristic, variant, hash;
    std::size_t trial = 0;
    fields >> mode >> heuristic >> variant >> trial >> hash;
    EXPECT_FALSE(fields.fail()) << "malformed golden line: " << line;
    golden[{mode, heuristic, variant, trial}] = hash;
  }
  return golden;
}

TEST(GoldenRegression, PaperGridTrialResultsAreBitIdentical) {
  const std::string path = ECDRA_GOLDEN_PATH;
  std::vector<std::string> header;
  const std::map<GoldenKey, std::string> golden = LoadFixture(path, &header);
  const std::map<GoldenKey, std::string> actual = ComputeGrid();

  if (std::getenv("ECDRA_REGEN_GOLDENS") != nullptr) {
    std::ofstream os(path, std::ios::trunc);
    ASSERT_TRUE(os.good()) << "cannot rewrite " << path;
    for (const std::string& line : header) os << line << '\n';
    for (const auto& [key, hash] : actual) {
      const auto& [mode, heuristic, variant, trial] = key;
      os << mode << ' ' << heuristic << ' ' << variant << ' ' << trial << ' '
         << hash << '\n';
    }
    FAIL() << "regenerated " << path << " (" << actual.size()
           << " hashes); review the diff and re-run without "
              "ECDRA_REGEN_GOLDENS";
  }

  ASSERT_EQ(golden.size(), actual.size())
      << "fixture and computed grid disagree on cell count — was a "
         "heuristic/variant added without regenerating the goldens?";
  for (const auto& [key, hash] : golden) {
    const auto& [mode, heuristic, variant, trial] = key;
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end())
        << mode << ' ' << heuristic << ' ' << variant << " trial " << trial
        << " missing from the computed grid";
    EXPECT_EQ(it->second, hash)
        << mode << ' ' << heuristic << ' ' << variant << " trial " << trial
        << " diverged from the golden result";
  }
}

// Enabling the econ layer with an all-zeros model must not move a single
// hash: a zero-valued EconModel is detected as trivial (it stamps nothing and
// reads as zero value and price), so the per-trial results stay
// byte-identical to the pre-econ fixture.
// Covers the immediate grid (the batch path takes no RunOptions and cannot
// carry an econ model, so it is structurally unaffected).
TEST(GoldenRegression, ZeroValuedEconModelReproducesThePaperGrid) {
  const std::string path = ECDRA_GOLDEN_PATH;
  const std::map<GoldenKey, std::string> golden = LoadFixture(path, nullptr);
  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  const policy::PolicyGrid grid = experiment::PaperScenario().grid;

  sim::RunOptions run;
  run.num_trials = kTrialsPerCell;
  run.governor = "static";
  run.econ_enabled = true;
  run.econ = econ::EconModel{};  // all zeros -> trivial -> no econ block
  ASSERT_TRUE(run.econ.trivial());

  for (const std::string& heuristic : grid.heuristics) {
    for (const std::string& variant : grid.filter_variants) {
      const std::vector<sim::TrialResult> trials =
          sim::RunTrials(setup, heuristic, variant, run);
      for (std::size_t t = 0; t < trials.size(); ++t) {
        const auto it = golden.find({"immediate", heuristic, variant, t});
        ASSERT_NE(it, golden.end())
            << "immediate " << heuristic << ' ' << variant << " trial " << t
            << " missing from the fixture";
        EXPECT_EQ(policy::Fnv1a64Hex(sim::TrialResultToJson(trials[t])),
                  it->second)
            << "immediate " << heuristic << ' ' << variant << " trial " << t
            << " diverged once a trivial econ model was enabled";
      }
    }
  }
}

}  // namespace
}  // namespace ecdra
