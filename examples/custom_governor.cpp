// Extension example: plugging your own online energy governor into the
// engine — in one file, with no engine edits. A Governor closes the loop
// the paper leaves open: the static fair-share filter budgets energy once
// per assignment, then the run burns open-loop. Registering a governor
// under a string name (ECDRA_REGISTER_GOVERNOR) makes it reachable from
// every stock harness — RunTrials, the grid driver, the CLI --governor
// flag, and the ScenarioSpec `run.governor` key.
//
// Here we write StepDownGovernor, a deliberately simple two-mode
// controller:
//
//   * while the trailing consumption ratio zeta(t)/zeta_max runs ahead of
//     elapsed time t/horizon, cap every core one P-state below its top
//     speed (floor = 1) and park whatever sits idle;
//   * once consumption falls back in line, lift the caps (floor = 0).
//
// It acts only through the three GovernorHost verbs, so every forced
// transition lands in the per-core nu lists and the Eq. 1/2 post-hoc
// accounting stays exactly reconciled with the online meter — the engine
// guarantees that, not the governor.
//
//   ./examples/custom_governor [num_trials]   (default 10)
#include <iostream>
#include <memory>
#include <string_view>
#include <vector>

#include "experiment/paper_config.hpp"
#include "governor/governor.hpp"
#include "policy/count_arg.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table_writer.hpp"

namespace {

using namespace ecdra;

/// Caps and parks while energy consumption runs ahead of the linear budget
/// schedule; lifts the caps once it falls back in line.
class StepDownGovernor final : public governor::Governor {
 public:
  [[nodiscard]] std::string_view name() const override { return "step-down"; }

  // Re-evaluate after every completion (the moments energy jumps) plus a
  // coarse tick so quiet stretches still get parked.
  [[nodiscard]] governor::GovernorCadence cadence() const override {
    return governor::GovernorCadence{.on_completion = true,
                                     .tick_period = 200.0};
  }

  void Govern(const governor::GovernorObservation& observation,
              governor::GovernorHost& host) override {
    if (observation.budget <= 0.0 || observation.horizon <= 0.0) return;
    const double burn_ratio = observation.consumed / observation.budget;
    const double time_ratio = observation.now / observation.horizon;
    const bool ahead = burn_ratio > time_ratio;

    const cluster::PStateIndex floor = ahead ? 1 : 0;
    for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
      host.SetPStateFloor(flat, floor);
      const governor::CoreView& core = observation.cores[flat];
      if (ahead && !core.busy && !core.parked) (void)host.ParkIdleCore(flat);
    }
  }
};

}  // namespace

// The whole integration: after this line, "step-down" resolves anywhere a
// governor name does — sim::RunOptions::governor below, but equally
// `run_experiment_cli --governor step-down` or `run.governor = step-down`
// in a scenario spec, if this translation unit is linked in.
ECDRA_REGISTER_GOVERNOR("step-down",
                        [] { return std::make_unique<StepDownGovernor>(); })

int main(int argc, char** argv) {
  const std::size_t num_trials =
      policy::CountArg(argc, argv, 1, "TRIALS", 1, 10);

  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  std::cout << "== Custom governor vs the open-loop baseline (" << num_trials
            << " trials, LL en+rob) ==\n\n";

  stats::Table table({"governor", "median missed", "median energy used %",
                      "caps", "parks"});
  const auto add = [&](const std::string& governor) {
    sim::RunOptions options;
    options.num_trials = num_trials;
    options.collect_counters = true;
    options.governor = governor;
    std::vector<double> misses;
    std::vector<double> used;
    std::uint64_t caps = 0;
    std::uint64_t parks = 0;
    for (const sim::TrialResult& trial :
         sim::RunTrials(setup, "LL", "en+rob", options)) {
      misses.push_back(static_cast<double>(trial.missed_deadlines));
      used.push_back(100.0 * trial.total_energy / setup.energy_budget);
      caps += trial.counters.governor_pstate_caps;
      parks += trial.counters.governor_cores_parked;
    }
    table.AddRow({governor, stats::Table::Num(stats::Summarize(misses).median, 1),
                  stats::Table::Num(stats::Summarize(used).median, 1),
                  std::to_string(caps), std::to_string(parks)});
  };

  add("static");
  add("step-down");

  table.PrintText(std::cout);
  std::cout << "\nthe step-down controller trades peak speed for headroom "
               "whenever consumption runs ahead of the linear budget "
               "schedule; the action counts show it engaging, and the "
               "energy column shows the closed loop holding the run nearer "
               "its budget than the paper's open-loop filter alone.\n";
  return 0;
}
