#include "stats/gnuplot_writer.hpp"

#include <fstream>
#include <ostream>

#include "util/assert.hpp"

namespace ecdra::stats {

void WriteGnuplotData(std::ostream& os,
                      const std::vector<BoxPlotSeries>& series) {
  ECDRA_REQUIRE(!series.empty(), "gnuplot figure needs at least one series");
  os << "# x q1 whisker_low whisker_high q3 median label\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const BoxWhisker& box = series[i].box;
    os << i + 1 << ' ' << box.q1 << ' ' << box.lower_whisker << ' '
       << box.upper_whisker << ' ' << box.q3 << ' ' << box.median << " \""
       << series[i].label << "\"\n";
  }
}

void WriteGnuplotScript(std::ostream& os, const std::string& title,
                        const std::string& ylabel,
                        const std::vector<BoxPlotSeries>& series,
                        const std::string& data_path,
                        const std::string& output_png) {
  ECDRA_REQUIRE(!series.empty(), "gnuplot figure needs at least one series");
  os << "set terminal pngcairo size 900,540\n"
     << "set output '" << output_png << "'\n"
     << "set title '" << title << "'\n"
     << "set ylabel '" << ylabel << "'\n"
     << "set boxwidth 0.4\n"
     << "set style fill empty\n"
     << "set grid ytics\n"
     << "unset key\n"
     << "set xrange [0.5:" << series.size() + 0.5 << "]\n"
     << "set xtics (";
  for (std::size_t i = 0; i < series.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << series[i].label << "\" " << i + 1;
  }
  os << ") rotate by -20\n"
     // Candlesticks take x, box_min, whisker_min, whisker_max, box_max;
     // the second plot overlays the median tick.
     << "plot '" << data_path
     << "' using 1:2:3:4:5 with candlesticks whiskerbars lt 1, \\\n"
     << "     '' using 1:6:6:6:6 with candlesticks lt -1\n";
}

void WriteGnuplotFigure(const std::string& basename, const std::string& title,
                        const std::string& ylabel,
                        const std::vector<BoxPlotSeries>& series) {
  const std::string data_path = basename + ".dat";
  std::ofstream data(data_path);
  ECDRA_REQUIRE(data.good(), "cannot write " + data_path);
  WriteGnuplotData(data, series);

  const std::string script_path = basename + ".gp";
  std::ofstream script(script_path);
  ECDRA_REQUIRE(script.good(), "cannot write " + script_path);
  WriteGnuplotScript(script, title, ylabel, series, data_path,
                     basename + ".png");
}

}  // namespace ecdra::stats
