// Quickstart: build the paper's §VI environment, run a handful of trials of
// the filtered Lightest Load scheduler, and print what happened.
//
//   ./examples/quickstart [num_trials]
#include <iostream>

#include "experiment/paper_config.hpp"
#include "policy/count_arg.hpp"
#include "sim/experiment_runner.hpp"

int main(int argc, char** argv) {
  using namespace ecdra;

  const std::size_t num_trials =
      policy::CountArg(argc, argv, 1, "TRIALS", 1, 3);

  // One-time environment construction: 8-node heterogeneous cluster, CVB
  // execution-time pmfs, deadlines, and the energy budget zeta_max.
  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  std::cout << "cluster: " << setup.cluster.num_nodes() << " nodes, "
            << setup.cluster.total_cores() << " cores\n"
            << "t_avg (grand mean exec time): " << setup.t_avg << "\n"
            << "p_avg (mean core power):      " << setup.p_avg << " W\n"
            << "energy budget zeta_max:       " << setup.energy_budget << "\n"
            << "window: " << setup.window_size << " tasks\n\n";

  sim::RunOptions options;
  options.num_trials = num_trials;

  // The paper's best configuration: Lightest Load with both filters.
  for (const sim::TrialResult& trial :
       sim::RunTrials(setup, "LL", "en+rob", options)) {
    std::cout << trial << "\n";
  }
  return 0;
}
