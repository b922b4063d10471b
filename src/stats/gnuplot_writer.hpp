// Gnuplot emission for box-and-whiskers figures: writes a data file
// (candlesticks convention: x, box_min(Q1), whisker_min, whisker_max,
// box_max(Q3), median) plus a ready-to-run .gp script, so every regenerated
// figure can also be rendered as a real plot:
//
//   gnuplot paper_figures.gp   ->  paper_figures.png
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "stats/summary.hpp"

namespace ecdra::stats {

/// Writes the candlestick data rows (one per series).
void WriteGnuplotData(std::ostream& os,
                      const std::vector<BoxPlotSeries>& series);

/// Writes a self-contained gnuplot script that reads `data_path` and renders
/// `output_png`. `title` and `ylabel` annotate the plot.
void WriteGnuplotScript(std::ostream& os, const std::string& title,
                        const std::string& ylabel,
                        const std::vector<BoxPlotSeries>& series,
                        const std::string& data_path,
                        const std::string& output_png);

/// Convenience: writes `<basename>.dat` and `<basename>.gp` next to each
/// other; the script renders `<basename>.png`.
void WriteGnuplotFigure(const std::string& basename, const std::string& title,
                        const std::string& ylabel,
                        const std::vector<BoxPlotSeries>& series);

}  // namespace ecdra::stats
