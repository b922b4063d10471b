// Box-and-whiskers five-number summaries — the presentation format of every
// results figure in the paper. Whiskers follow the Tukey convention: the
// most extreme data points within 1.5 x IQR of the quartiles; points beyond
// are listed as outliers.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace ecdra::stats {

struct BoxWhisker {
  std::size_t n = 0;
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  /// Tukey whisker ends (most extreme points within 1.5 * IQR).
  double lower_whisker = 0.0;
  double upper_whisker = 0.0;
  std::vector<double> outliers;

  [[nodiscard]] double iqr() const noexcept { return q3 - q1; }
};

/// One labelled box of a figure: what RenderBoxPlot (ascii_plot.hpp) and
/// the gnuplot writer (gnuplot_writer.hpp) both draw.
struct BoxPlotSeries {
  std::string label;
  BoxWhisker box;
};

/// Summarizes a sample (at least one value required).
[[nodiscard]] BoxWhisker Summarize(std::vector<double> values);

std::ostream& operator<<(std::ostream& os, const BoxWhisker& box);

}  // namespace ecdra::stats
