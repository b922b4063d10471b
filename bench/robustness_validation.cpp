// Validation of the robustness model (contribution (a) of the paper):
// rho(i,j,k,pi,t_l,z) — the predicted probability, at assignment time, that
// a task finishes by its deadline — should calibrate against the realized
// on-time frequency. This harness pools per-task records across trials and
// heuristics, bins tasks by predicted rho, and reports the realized on-time
// rate per bin plus a correlation summary.
//
// Usage: ./robustness_validation [num_trials_per_heuristic]   (default 10)
#include <cmath>
#include <iostream>
#include <vector>

#include "experiment/paper_config.hpp"
#include "policy/count_arg.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/table_writer.hpp"

int main(int argc, char** argv) {
  using namespace ecdra;

  const std::size_t trials = policy::CountArg(argc, argv, 1, "TRIALS", 1, 10);

  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  sim::RunOptions options;
  options.num_trials = trials;
  options.collect_task_records = true;

  constexpr std::size_t kBins = 10;
  std::vector<std::size_t> count(kBins, 0);
  std::vector<std::size_t> on_time(kBins, 0);
  double sum_rho = 0.0, sum_y = 0.0, sum_rho2 = 0.0, sum_y2 = 0.0,
         sum_rho_y = 0.0;
  std::size_t n = 0;

  // Pool across heuristics so every region of the rho spectrum is populated
  // (Random explores poor assignments; LL/MECT concentrate on good ones).
  for (const std::string& heuristic :
       experiment::PaperScenario().grid.heuristics) {
    for (const sim::TrialResult& trial :
         sim::RunTrials(setup, heuristic, "none", options)) {
      for (const sim::TaskRecord& record : trial.task_records) {
        if (!record.assigned) continue;
        const double rho = record.rho_at_assignment;
        const double realized = record.on_time ? 1.0 : 0.0;
        const std::size_t bin =
            std::min(kBins - 1, static_cast<std::size_t>(rho * kBins));
        ++count[bin];
        on_time[bin] += record.on_time ? 1 : 0;
        sum_rho += rho;
        sum_y += realized;
        sum_rho2 += rho * rho;
        sum_y2 += realized * realized;
        sum_rho_y += rho * realized;
        ++n;
      }
    }
  }

  std::cout << "== Robustness model validation (rho predicted at assignment "
               "vs realized on-time completion) ==\n"
            << "pooled over SQ/MECT/LL/Random x " << trials
            << " trials, n = " << n << " assigned tasks\n\n";

  stats::Table table({"predicted rho bin", "tasks", "realized on-time rate",
                      "bin midpoint"});
  for (std::size_t b = 0; b < kBins; ++b) {
    const double lo = static_cast<double>(b) / kBins;
    const double hi = static_cast<double>(b + 1) / kBins;
    const double rate =
        count[b] == 0
            ? 0.0
            : static_cast<double>(on_time[b]) / static_cast<double>(count[b]);
    table.AddRow({"[" + stats::Table::Num(lo, 1) + ", " +
                      stats::Table::Num(hi, 1) + ")",
                  std::to_string(count[b]), stats::Table::Num(rate, 3),
                  stats::Table::Num(0.5 * (lo + hi), 2)});
  }
  table.PrintText(std::cout);

  const double dn = static_cast<double>(n);
  const double cov = sum_rho_y / dn - (sum_rho / dn) * (sum_y / dn);
  const double var_rho = sum_rho2 / dn - (sum_rho / dn) * (sum_rho / dn);
  const double var_y = sum_y2 / dn - (sum_y / dn) * (sum_y / dn);
  const double corr = cov / std::sqrt(var_rho * var_y);
  std::cout << "\npoint-biserial correlation(rho, on-time) = "
            << stats::Table::Num(corr, 3)
            << "  (a well-calibrated model tracks the bin midpoints and "
               "correlates strongly)\n";
  return 0;
}
