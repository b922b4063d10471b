// Scenario example: anatomy of an oversubscribed burst.
//
// Runs one trial of the paper's burst–lull–burst workload with per-task
// records and breaks the outcome down by arrival phase: during bursts the
// system is oversubscribed (queueing delays eat the deadline slack), while
// the lull is where an energy-aware scheduler banks budget for the second
// burst. Also samples the system robustness rho(t) trace — the expected
// number of on-time completions among in-flight tasks.
//
//   ./examples/oversubscribed_burst [heuristic] [variant] [trial]
#include <iostream>
#include <string>

#include "experiment/paper_config.hpp"
#include "policy/count_arg.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/table_writer.hpp"

int main(int argc, char** argv) {
  using namespace ecdra;

  const std::string heuristic = argc > 1 ? argv[1] : "LL";
  const std::string variant = argc > 2 ? argv[2] : "en+rob";
  const std::size_t trial = policy::CountArg(argc, argv, 3, "TRIAL", 0, 0);

  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  sim::RunOptions options;
  options.collect_task_records = true;
  options.collect_robustness_trace = true;
  const sim::TrialResult result =
      sim::RunSingleTrial(setup, heuristic, variant, trial, options);

  std::cout << "trial " << trial << " of " << heuristic << " (" << variant
            << ") on " << setup.cluster.total_cores() << " cores\n"
            << result << "\n\n";

  // Phase breakdown: tasks 0-199 (early burst), 200-799 (lull),
  // 800-999 (late burst).
  struct Phase {
    const char* name;
    std::size_t first, last;
  };
  stats::Table table({"phase", "tasks", "completed", "late", "discarded",
                      "over budget", "mean wait"});
  for (const Phase& phase : {Phase{"early burst (fast)", 0, 199},
                             Phase{"lull (slow)", 200, 799},
                             Phase{"late burst (fast)", 800, 999}}) {
    std::size_t completed = 0, late = 0, discarded = 0, over = 0, n = 0;
    double wait = 0.0;
    std::size_t waited = 0;
    for (std::size_t id = phase.first; id <= phase.last; ++id) {
      const sim::TaskRecord& record = result.task_records[id];
      ++n;
      if (!record.assigned) {
        ++discarded;
        continue;
      }
      wait += record.start_time - record.arrival;
      ++waited;
      if (!record.on_time) {
        ++late;
      } else if (!record.within_energy) {
        ++over;
      } else {
        ++completed;
      }
    }
    table.AddRow({phase.name, std::to_string(n), std::to_string(completed),
                  std::to_string(late), std::to_string(discarded),
                  std::to_string(over),
                  waited == 0 ? "-"
                              : stats::Table::Num(
                                    wait / static_cast<double>(waited), 1)});
  }
  table.PrintText(std::cout);

  // System robustness rho(t) — the expected on-time completions among
  // in-flight tasks — sampled at arrivals and rendered as a sparkline:
  // robustness collapses when a burst outruns the cluster.
  if (!result.robustness_trace.empty()) {
    constexpr std::size_t kBins = 64;
    const double t_end = result.robustness_trace.back().time;
    std::vector<double> rho(kBins, 0.0);
    std::vector<std::size_t> counts(kBins, 0);
    double rho_max = 1.0;
    for (const sim::RobustnessSample& sample : result.robustness_trace) {
      const auto bin = std::min(
          kBins - 1, static_cast<std::size_t>(sample.time / t_end * kBins));
      rho[bin] += sample.rho;
      ++counts[bin];
    }
    for (std::size_t b = 0; b < kBins; ++b) {
      if (counts[b] > 0) rho[b] /= static_cast<double>(counts[b]);
      rho_max = std::max(rho_max, rho[b]);
    }
    static constexpr const char* kGlyphs = " .:-=+*#%@";
    std::string spark;
    for (std::size_t b = 0; b < kBins; ++b) {
      const auto level = static_cast<std::size_t>(
          rho[b] / rho_max * 9.0 + 0.5);
      spark += kGlyphs[level];
    }
    std::cout << "\nsystem robustness rho(t) over the trial (peak "
              << stats::Table::Num(rho_max, 1) << " expected on-time tasks):\n["
              << spark << "]\n burst            lull                      "
              << "                    burst\n";
  }

  if (result.energy_exhausted_at) {
    std::cout << "\nenergy budget exhausted at t = "
              << stats::Table::Num(*result.energy_exhausted_at, 0)
              << " (makespan " << stats::Table::Num(result.makespan, 0)
              << ") — completions after that instant do not count.\n";
  } else {
    std::cout << "\nenergy budget never exhausted ("
              << stats::Table::Num(
                     100.0 * result.total_energy / setup.energy_budget, 1)
              << "% used).\n";
  }
  return 0;
}
