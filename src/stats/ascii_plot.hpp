// Terminal rendering of box-and-whiskers plots, so a grid's @plot can
// reproduce the *look* of the paper's Figures 2-6 directly in its output:
//
//   SQ (none)    |      o   |-----[  =====  ]-------|
//
// with '[' Q1, '=' the interquartile box, '|' the median tick inside the
// box, ']' Q3, whisker lines to the Tukey fences, and 'o' outliers.
#pragma once

#include <string>
#include <vector>

#include "stats/summary.hpp"

namespace ecdra::stats {

/// Renders all series against a shared horizontal axis of `width` columns,
/// with an axis legend line at the bottom.
[[nodiscard]] std::string RenderBoxPlot(
    const std::vector<BoxPlotSeries>& series, std::size_t width = 72);

}  // namespace ecdra::stats
