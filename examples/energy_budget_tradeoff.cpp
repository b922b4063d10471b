// Scenario example: how tight is the energy constraint?
//
// The paper sets zeta_max to exactly 1000 average-task energies, which is
// deliberately insufficient. This example sweeps the budget from 0.6x to
// 2.0x of the paper's value and shows how missed deadlines respond for an
// energy-aware configuration (LL en+rob) versus an energy-oblivious one
// (MECT none): the filtered scheduler degrades gracefully as the budget
// shrinks, while the oblivious one falls off a cliff.
//
//   ./examples/energy_budget_tradeoff [num_trials]   (default 10)
#include <iostream>

#include "experiment/paper_config.hpp"
#include "policy/count_arg.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table_writer.hpp"

int main(int argc, char** argv) {
  using namespace ecdra;

  const std::size_t num_trials =
      policy::CountArg(argc, argv, 1, "TRIALS", 1, 10);

  std::cout << "== Missed deadlines vs energy budget (" << num_trials
            << " trials per point) ==\n\n";
  stats::Table table({"budget (x paper)", "LL en+rob median",
                      "MECT none median", "LL exhausts?", "MECT exhausts?"});

  for (const double scale : {0.6, 0.8, 1.0, 1.2, 1.5, 2.0}) {
    sim::SetupOptions options = experiment::PaperSetupOptions();
    options.budget_task_count = 1000.0 * scale;
    const sim::ExperimentSetup setup =
        sim::BuildExperimentSetup(experiment::kPaperMasterSeed, options);

    sim::RunOptions run;
    run.num_trials = num_trials;
    const auto summarize = [&](const std::string& heuristic,
                               const std::string& variant,
                               std::size_t& exhausted) {
      const auto trials = sim::RunTrials(setup, heuristic, variant, run);
      std::vector<double> misses;
      exhausted = 0;
      for (const sim::TrialResult& trial : trials) {
        misses.push_back(static_cast<double>(trial.missed_deadlines));
        if (trial.energy_exhausted_at) ++exhausted;
      }
      return stats::Summarize(misses).median;
    };

    std::size_t ll_exhausted = 0, mect_exhausted = 0;
    const double ll = summarize("LL", "en+rob", ll_exhausted);
    const double mect = summarize("MECT", "none", mect_exhausted);
    table.AddRow({stats::Table::Num(scale, 1), stats::Table::Num(ll, 1),
                  stats::Table::Num(mect, 1),
                  std::to_string(ll_exhausted) + "/" +
                      std::to_string(num_trials),
                  std::to_string(mect_exhausted) + "/" +
                      std::to_string(num_trials)});
  }
  table.PrintText(std::cout);
  std::cout << "\nwith a loose budget the heuristics converge (deadline "
               "misses only); as the budget tightens, energy-awareness is "
               "what separates them.\n";
  return 0;
}
