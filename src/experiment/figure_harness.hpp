// Shared harness for regenerating the paper's figures: runs a set of
// (heuristic, filter variant) configurations over the Monte-Carlo trials,
// summarizes missed deadlines as box-and-whiskers, and prints the table +
// ASCII plot every fig*_ bench emits.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "policy/scenario_spec.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/summary.hpp"

namespace ecdra::experiment {

struct SeriesSpec {
  std::string heuristic;
  std::string filter_variant;
  /// Label in the output (defaults to "<heuristic> (<variant>)").
  std::string label;
};

struct SeriesResult {
  SeriesSpec spec;
  std::vector<double> missed_deadlines;  // one entry per trial
  stats::BoxWhisker box;
  /// Mean ground-truth energy drawn per trial, as a fraction of zeta_max.
  double mean_energy_fraction = 0.0;
  /// Cross-trial aggregate including the summed observability counters
  /// (all-zero unless RunOptions.collect_counters was set).
  sim::SummaryStatistics summary;
};

struct FigureResult {
  std::string title;
  std::size_t window_size = 0;
  std::vector<SeriesResult> series;
};

/// Runs every series (50 trials each by default) against the shared setup.
/// Uses the crash-safe sweep runner: a failing trial is isolated (and
/// retried per options.max_attempts) rather than aborting the figure; its
/// series is summarized over the surviving trials and flagged in
/// PrintFigure.
[[nodiscard]] FigureResult RunFigure(const sim::ExperimentSetup& setup,
                                     const std::string& title,
                                     const std::vector<SeriesSpec>& specs,
                                     const sim::RunOptions& options);

/// One series per grid filter variant of one heuristic — Figures 2-5.
/// Defaults to the paper scenario's grid (PaperScenario().grid).
[[nodiscard]] std::vector<SeriesSpec> VariantsOfHeuristic(
    const std::string& heuristic);
[[nodiscard]] std::vector<SeriesSpec> VariantsOfHeuristic(
    const std::string& heuristic, const policy::PolicyGrid& grid);

/// The best ("en+rob") variant of every grid heuristic — Figure 6.
/// Defaults to the paper scenario's grid.
[[nodiscard]] std::vector<SeriesSpec> BestVariants();
[[nodiscard]] std::vector<SeriesSpec> BestVariants(
    const policy::PolicyGrid& grid);

/// Table (min/Q1/median/Q3/max/mean + energy + discards) and ASCII box
/// plot. When counters were collected, appends an observability table
/// (filter prunes, ReadyPmf hit rate, pmf op counts, decision latency).
void PrintFigure(std::ostream& os, const FigureResult& figure);

}  // namespace ecdra::experiment
