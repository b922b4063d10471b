// Comparison harness: the paper's immediate-mode heuristics (tasks mapped
// irrevocably on arrival, §III-B) against batch-mode mapping (the regime of
// the group's predecessor paper [SmA10] and of [MaA99]'s second family),
// on the identical workload, cluster, budget, and per-task execution-time
// draws. Batch mode defers commitment until a core is actually free, which
// acts like a perfect-information queue — its advantage quantifies the cost
// of the paper's immediate-mode restriction.
//
// Both modes run the same core::Filter chain and report the same
// obs::Counters telemetry, so the observability table compares like with
// like: how much each filter pruned, and what a mapping decision costs.
//
// Usage: ./immediate_vs_batch [num_trials]   (default 25)
#include <algorithm>
#include <iostream>

#include "batch/batch_runner.hpp"
#include "experiment/paper_config.hpp"
#include "obs/counters.hpp"
#include "policy/count_arg.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table_writer.hpp"

int main(int argc, char** argv) {
  using namespace ecdra;

  const std::size_t num_trials =
      policy::CountArg(argc, argv, 1, "TRIALS", 1, 25);
  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  std::cout << "== Immediate-mode vs batch-mode mapping (" << num_trials
            << " trials; both with energy + robustness filtering) ==\n\n";

  stats::Table table({"mode", "policy", "median missed", "Q1", "Q3",
                      "mean energy used"});
  stats::Table counters_table({"mode", "policy", "candidates", "pruned en",
                               "pruned rob", "tasks mapped", "us/decision"});
  const auto add_row = [&](const std::string& mode, const std::string& name,
                           const std::vector<sim::TrialResult>& trials) {
    std::vector<double> misses;
    double energy = 0.0;
    obs::Counters counters;
    for (const sim::TrialResult& trial : trials) {
      misses.push_back(static_cast<double>(trial.missed_deadlines));
      energy += trial.total_energy / setup.energy_budget;
      counters.Merge(trial.counters);
    }
    const stats::BoxWhisker box = stats::Summarize(misses);
    table.AddRow({mode, name, stats::Table::Num(box.median, 1),
                  stats::Table::Num(box.q1, 1), stats::Table::Num(box.q3, 1),
                  stats::Table::Num(
                      100.0 * energy / static_cast<double>(trials.size()), 1) +
                      "%"});
    const double decisions =
        std::max<double>(1.0, static_cast<double>(counters.decisions()));
    counters_table.AddRow({
        mode,
        name,
        std::to_string(counters.candidates_generated),
        std::to_string(counters.pruned_energy),
        std::to_string(counters.pruned_robustness),
        std::to_string(counters.tasks_mapped),
        stats::Table::Num(1e6 * counters.decision_seconds / decisions, 2),
    });
  };

  sim::RunOptions immediate;
  immediate.num_trials = num_trials;
  immediate.collect_counters = true;
  for (const char* heuristic : {"LL", "MECT", "SQ"}) {
    add_row("immediate", std::string(heuristic) + " (en+rob)",
            sim::RunTrials(setup, heuristic, "en+rob", immediate));
  }

  batch::BatchRunOptions batch_options;
  batch_options.num_trials = num_trials;
  batch_options.collect_counters = true;
  for (const std::string& heuristic : batch::BatchHeuristicNames()) {
    add_row("batch", heuristic + std::string(" (en+rob)"),
            batch::RunBatchTrials(setup, heuristic, batch_options));
  }

  table.PrintText(std::cout);
  std::cout << "\nobservability (totals across trials; both modes run the "
               "same core::Filter chain):\n";
  counters_table.PrintText(std::cout);
  std::cout << "\nbatch mode defers the P-state and core choice until a core "
               "is free, so it never inherits a stale decision; the gap to "
               "immediate mode is the price of the paper's immediate-mode "
               "constraint.\n";
  return 0;
}
