// Shared driver for the fig*_ binaries: builds the canonical §VI setup,
// runs the requested series, prints the regenerated figure, and appends the
// paper's reported medians for side-by-side comparison.
//
// Usage:  ./figN_xxx [num_trials] [per_trial.csv] [gnuplot_basename]
// (default 50 trials; the optional CSV path receives one row per trial, and
// the optional gnuplot basename receives <base>.dat/<base>.gp for rendering
// a real box plot with `gnuplot <base>.gp`).
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/figure_harness.hpp"
#include "experiment/paper_config.hpp"
#include "policy/count_arg.hpp"
#include "policy/scenario_spec.hpp"
#include "stats/gnuplot_writer.hpp"
#include "stats/table_writer.hpp"
#include "validate/validation.hpp"

namespace ecdra::bench {

struct PaperReference {
  std::string label;
  double paper_median = 0.0;
};

inline int RunFigureBench(int argc, char** argv, const std::string& title,
                          const std::vector<experiment::SeriesSpec>& specs,
                          const std::vector<PaperReference>& references) {
  // One declarative scenario drives the whole bench: the environment, the
  // run knobs, and the series enumeration are all projections of it.
  const policy::ScenarioSpec scenario = experiment::PaperScenario();
  sim::RunOptions options = sim::RunOptionsFromSpec(scenario);
  // The figure benches always collect counters: the observability table
  // costs well under the run-to-run noise and doubles as a sanity check
  // that the filter chain and pmf caches behave as the paper describes.
  options.collect_counters = true;
  // ECDRA_VALIDATE=off|cheap|deep turns on the runtime invariant checks for
  // a whole figure regeneration without touching the bench invocations.
  if (const char* env = std::getenv("ECDRA_VALIDATE")) {
    const auto mode = validate::ParseValidationMode(env);
    if (!mode) {
      std::cerr << "invalid ECDRA_VALIDATE value '" << env
                << "' (valid: off, cheap, deep)\n";
      return 2;
    }
    options.validation = *mode;
  }
  options.num_trials =
      policy::CountArg(argc, argv, 1, "TRIALS", 1, options.num_trials);

  const sim::ExperimentSetup setup = sim::BuildExperimentSetup(scenario);
  std::cout << "environment: " << setup.cluster.num_nodes() << " nodes / "
            << setup.cluster.total_cores() << " cores, t_avg=" << setup.t_avg
            << ", p_avg=" << setup.p_avg
            << " W, zeta_max=" << setup.energy_budget << ", "
            << options.num_trials << " trials\n\n";

  const experiment::FigureResult figure =
      experiment::RunFigure(setup, title, specs, options);
  experiment::PrintFigure(std::cout, figure);

  if (argc > 2) {
    stats::Table csv({"series", "trial", "missed_deadlines"});
    for (const experiment::SeriesResult& series : figure.series) {
      for (std::size_t trial = 0; trial < series.missed_deadlines.size();
           ++trial) {
        csv.AddRow({series.spec.label, std::to_string(trial),
                    stats::Table::Num(series.missed_deadlines[trial], 0)});
      }
    }
    std::ofstream os(argv[2]);
    if (!os.good()) {
      std::cerr << "cannot write CSV to " << argv[2] << "\n";
      return 1;
    }
    csv.PrintCsv(os);
    std::cout << "per-trial CSV written to " << argv[2] << "\n";
  }
  if (argc > 3) {
    std::vector<stats::GnuplotSeries> gnuplot;
    gnuplot.reserve(figure.series.size());
    for (const experiment::SeriesResult& series : figure.series) {
      gnuplot.push_back(stats::GnuplotSeries{series.spec.label, series.box});
    }
    stats::WriteGnuplotFigure(argv[3], title, "missed deadlines", gnuplot);
    std::cout << "gnuplot files written to " << argv[3] << ".{dat,gp}\n";
  }

  if (!references.empty()) {
    std::cout << "paper-reported medians (for shape comparison; absolute\n"
                 "numbers depend on the authors' sampled environment):\n";
    stats::Table table({"series", "paper median", "ours"});
    for (const PaperReference& ref : references) {
      double ours = -1.0;
      for (const experiment::SeriesResult& series : figure.series) {
        if (series.spec.label == ref.label) ours = series.box.median;
      }
      table.AddRow({ref.label, stats::Table::Num(ref.paper_median, 1),
                    ours < 0 ? "-" : stats::Table::Num(ours, 1)});
    }
    table.PrintText(std::cout);
  }
  return 0;
}

}  // namespace ecdra::bench
