// One driver for every grid of runs, the paper's figures and every
// ablation: ./ablation GRID [TRIALS | --smoke] [--json PATH]
// [--gnuplot BASE]. A grid file (bench/grids/<name>.spec) holds the knob
// values it sweeps as ScenarioSpec lines; the driver reads only the grid's
// structure, in '@' lines (EXPERIMENTS.md, "Ablations"):
//
//   @title TEXT                 printed as "== TEXT (N trials) =="
//   @axis NAME                  an axis; the @level blocks below it are
//   @level LABEL [key = value]  its levels, in order
//   @cell NAME [key = value]    a single cell, run before the cross product
//   @column LABEL = STAT SOURCE [JSON_KEY]
//   @gate CELL >=|> CELL on LABEL
//   @plot SOURCE                a box plot of every row's SOURCE values
//
// A cell's spec is the paper scenario's canonical text, the base lines,
// then the cell's block lines, so a later line wins. Its rows are the
// grid.heuristics x grid.filter_variants pairs, then the
// grid.batch_heuristics x grid.filter_variants pairs in batch mode. STAT
// mean sums the SOURCE row in trial order over the trial count, bit for
// bit as SummarizeTrials does. --gnuplot writes the @plot boxes to
// BASE.{dat,gp}. A failing gate, trial or validation exits 1; bad input
// exits 2.
#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "experiment/paper_config.hpp"
#include "obs/counters.hpp"
#include "policy/scenario_spec.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/ascii_plot.hpp"
#include "stats/gnuplot_writer.hpp"
#include "stats/summary.hpp"
#include "stats/table_writer.hpp"

namespace {

using namespace ecdra;

/// One-line diagnostic -> stderr, exit 2.
[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "ablation: " << message << "\n";
  std::exit(2);
}

/// Spec lines under a label: one axis level, or one single cell.
struct Block {
  std::string label, lines;
};

struct Axis {
  std::string name;
  std::vector<Block> levels;
};

constexpr std::string_view kStats[] = {"mean", "median", "q1",  "q3",
                                       "min",  "max",    "sum", "share"};

/// A per-trial value: a result row or a counter.
struct Source {
  const sim::ResultField* field = nullptr;          // a result row, or
  std::uint64_t obs::Counters::*counter = nullptr;  // a counter
};

/// The source named `name` (a result row, "block.key" outside the top
/// block, or a counter); nullopt for an unknown name.
std::optional<Source> FindSource(const std::string& name) {
  for (const sim::ResultBlock& result : sim::ResultBlocks()) {
    for (const sim::ResultField& field : result.fields) {
      const std::string prefix =
          result.key.empty() ? "" : std::string(result.key) + ".";
      if (prefix + std::string(field.key) == name) return Source{&field};
    }
  }
  for (const obs::CounterField& slot : obs::CounterFields()) {
    if (slot.name == name) return Source{nullptr, slot.slot};
  }
  return std::nullopt;
}

struct Column {
  std::string label, stat, json_key;
  Source source;
};

struct Grid {
  std::string title, base;
  std::vector<Block> cells;
  std::vector<Axis> axes;
  std::vector<Column> columns;
  std::vector<std::string> gates;  // "CELL OP CELL on LABEL"
  std::string plot;                // the @plot SOURCE ("" = no plot)
  Source plot_source;
};

Grid ReadGrid(const std::string& path) {
  std::ifstream is(path);
  if (!is) Fail("cannot read grid '" + path + "'");
  Grid grid;
  std::string* block = &grid.base;  // where spec lines go (null: nowhere)
  std::string text;
  for (int number = 1; std::getline(is, text); ++number) {
    const std::string where = path + ":" + std::to_string(number) + ": ";
    const auto add = [&](const std::string& line) {
      try {  // alone, for a diagnostic that names the line
        (void)policy::ParseScenarioSpec("ecdra-scenario v1\n" + line);
      } catch (const std::invalid_argument& error) {
        Fail(where + error.what());
      }
      if (block == nullptr) Fail(where + "spec line outside a block");
      *block += line + '\n';
    };
    std::istringstream words(text);
    std::string directive, rest;
    std::getline(words >> directive >> std::ws, rest);
    rest.erase(rest.find_last_not_of(" \t\r") + 1);
    if (directive.empty() || directive[0] == '#') continue;
    if (directive[0] != '@') {
      add(directive + " " + rest);
    } else if (directive == "@title") {
      grid.title = rest;
    } else if (directive == "@axis") {
      grid.axes.push_back({rest, {}});
      block = nullptr;
    } else if (directive == "@level" || directive == "@cell") {
      const std::string label = rest.substr(0, rest.find_first_of(" \t"));
      const bool level = directive == "@level";
      if (label.empty() || (level && (grid.axes.empty() ||
                                      label.find('/') != label.npos))) {
        Fail(where + "expected a label (a @level: below an @axis, no '/')");
      }
      auto& blocks = level ? grid.axes.back().levels : grid.cells;
      block = &blocks.emplace_back(Block{label, ""}).lines;
      const std::size_t line = rest.find_first_not_of(" \t", label.size());
      if (line != rest.npos) add(rest.substr(line));
    } else if (directive == "@column") {
      const std::size_t eq = rest.find(" = ");
      Column column;
      column.label = rest.substr(0, eq);
      std::string name;
      std::istringstream(eq == rest.npos ? "" : rest.substr(eq + 3)) >>
          column.stat >> name >> column.json_key;
      const std::optional<Source> source = FindSource(name);
      if (std::ranges::find(kStats, column.stat) == std::end(kStats) ||
          !source) {
        Fail(where + "expected '@column LABEL = STAT SOURCE [JSON_KEY]' "
                     "with a known STAT and SOURCE");
      }
      column.source = *source;
      grid.columns.push_back(column);
      block = nullptr;
    } else if (directive == "@plot") {
      const std::optional<Source> source = FindSource(rest);
      if (!source) Fail(where + "expected '@plot SOURCE' with a known SOURCE");
      grid.plot = rest;
      grid.plot_source = *source;
      block = nullptr;
    } else if (directive == "@gate") {
      grid.gates.push_back(rest);
      block = nullptr;
    } else {
      Fail(where + "unknown directive '" + directive + "'");
    }
  }
  return grid;
}

/// One table row: one (heuristic, filter variant) pair of one cell.
struct Row {
  std::string name, cell, heuristic, variant;
  /// The cell's seed and environment only: the setup cache's key.
  policy::ScenarioSpec environment;
  sim::RunOptions run;
  std::vector<std::optional<double>> values;  // one per column
  std::vector<double> plot;                   // the @plot SOURCE per trial
  std::uint64_t violations = 0;               // validation, over all trials
  std::size_t violating_trials = 0;
};

std::vector<Row> Expand(const Grid& grid, const std::string& base) {
  std::vector<Block> cells = grid.cells;
  for (const Block& cell : cells) {
    if (std::ranges::count(cell.label, '/') + 1 !=
        static_cast<std::ptrdiff_t>(grid.axes.size())) {
      Fail("@cell " + cell.label + ": needs one '/'-joined label per axis");
    }
  }
  std::vector<Block> product{{}};
  for (const Axis& axis : grid.axes) {
    if (axis.levels.empty()) Fail("@axis " + axis.name + ": has no @level");
    std::vector<Block> next;
    for (const Block& outer : product) {
      for (const Block& level : axis.levels) {
        next.push_back(
            {outer.label + (outer.label.empty() ? "" : "/") + level.label,
             outer.lines + level.lines});
      }
    }
    product = std::move(next);
  }
  cells.insert(cells.end(), product.begin(), product.end());

  std::vector<Row> rows;
  for (const Block& cell : cells) {
    const policy::ScenarioSpec spec =
        policy::ParseScenarioSpec(base + cell.lines);
    const policy::PolicyGrid& pairs = spec.grid;
    Row row;
    row.name = row.cell = cell.label;
    try {
      row.run = sim::RunOptionsFromSpec(spec);
      if (!pairs.batch_heuristics.empty()) {
        policy::RequireBatchCompatible(spec);
      }
    } catch (const std::invalid_argument& error) {
      Fail(cell.label + ": " + error.what());
    }
    row.environment.master_seed = spec.master_seed;
    row.environment.environment = spec.environment;
    const std::size_t count =
        (pairs.heuristics.size() + pairs.batch_heuristics.size()) *
        pairs.filter_variants.size();
    const auto add = [&](const std::vector<std::string>& heuristics) {
      for (const std::string& heuristic : heuristics) {
        for (const std::string& variant : pairs.filter_variants) {
          row.heuristic = heuristic;
          row.variant = variant;
          if (count > 1) {
            row.name = cell.label + "/" + heuristic + "/" + variant;
          }
          rows.push_back(row);
        }
      }
    };
    add(pairs.heuristics);
    row.run.mode = policy::RunMode::kBatch;
    add(pairs.batch_heuristics);
  }
  return rows;
}

/// The source's value in every trial that has one, in trial order.
std::vector<double> Values(const Source& source,
                           const std::vector<sim::TrialResult>& trials) {
  std::vector<double> values;
  for (const sim::TrialResult& trial : trials) {
    const sim::ResultValue value =
        source.counter ? sim::ResultValue(trial.counters.*source.counter)
                       : source.field->codec.get(trial);
    if (const auto* count = std::get_if<std::uint64_t>(&value)) {
      values.push_back(static_cast<double>(*count));
    } else if (const auto* number = std::get_if<double>(&value)) {
      values.push_back(*number);
    }
  }
  return values;
}

/// The column's statistic over the trials' values (nullopt: no value).
std::optional<double> Statistic(const Column& column,
                                const std::vector<sim::TrialResult>& trials,
                                double energy_budget) {
  std::vector<double> values = Values(column.source, trials);
  if (values.empty()) return std::nullopt;
  if (column.stat == "mean" || column.stat == "sum" ||
      column.stat == "share") {
    double sum = 0.0;
    for (const double value : values) {
      sum += column.stat == "share" ? value / energy_budget : value;
    }
    return column.stat == "sum" ? sum
                                : sum / static_cast<double>(values.size());
  }
  const stats::BoxWhisker box = stats::Summarize(std::move(values));
  if (column.stat == "median") return box.median;
  if (column.stat == "q1") return box.q1;
  if (column.stat == "q3") return box.q3;
  return column.stat == "min" ? box.min : box.max;
}

std::string Show(const Column& column, const std::optional<double>& value) {
  if (!value) return "never";
  if (column.stat == "share") return stats::Table::Num(100 * *value, 1) + "%";
  return stats::Table::Num(*value, column.stat == "sum" ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid_path, json_path, gnuplot_path;
  std::optional<std::uint64_t> trials;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      trials = 2;
    } else if (arg == "--json") {
      if (++i == argc) Fail("--json: missing path");
      json_path = argv[i];
    } else if (arg == "--gnuplot") {
      if (++i == argc) Fail("--gnuplot: missing path");
      gnuplot_path = argv[i];
    } else if (grid_path.empty()) {
      grid_path = arg;
    } else {
      try {
        trials = policy::ParseSpecCount(arg);
      } catch (const std::invalid_argument& error) {
        Fail(std::string("TRIALS: ") + error.what());
      }
      if (*trials == 0) Fail("TRIALS: must be >= 1");
    }
  }
  if (grid_path.empty()) {
    Fail("usage: ablation GRID [TRIALS | --smoke] [--json PATH] "
         "[--gnuplot BASE]");
  }

  const Grid grid = ReadGrid(grid_path);
  if (!gnuplot_path.empty() && grid.plot.empty()) {
    Fail("--gnuplot: the grid has no @plot line");
  }
  const std::string base =
      policy::CanonicalSpecText(experiment::PaperScenario()) + grid.base;
  std::vector<Row> rows = Expand(grid, base);
  const std::size_t num_trials =
      trials.value_or(policy::ParseScenarioSpec(base).num_trials);
  // Each gate as {lhs row, rhs row, column, strict}, before anything runs.
  std::vector<std::array<std::size_t, 4>> gates;
  for (const std::string& gate : grid.gates) {
    std::istringstream terms(gate);
    std::string lhs, op, rhs, on, column;
    std::getline(terms >> lhs >> op >> rhs >> on >> std::ws, column);
    const auto find = [&](const auto& items, const std::string& name,
                          auto key) {
      const auto it = std::ranges::find(items, name, key);
      if ((op != ">=" && op != ">") || on != "on" || it == items.end()) {
        Fail("@gate " + gate + ": expected CELL >=|> CELL on COLUMN");
      }
      return static_cast<std::size_t>(it - items.begin());
    };
    gates.push_back({find(rows, lhs, &Row::name), find(rows, rhs, &Row::name),
                     find(grid.columns, column, &Column::label), op == ">"});
  }

  std::cout << "== " << grid.title << " (" << num_trials << " trials) ==\n\n"
            << std::flush;
  const bool counters =
      grid.plot_source.counter ||
      std::ranges::any_of(grid.columns, [](const Column& column) {
        return column.source.counter;
      });
  std::map<std::string, sim::ExperimentSetup> setups;
  for (Row& row : rows) {
    const std::string key = policy::CanonicalSpecText(row.environment);
    auto setup = setups.find(key);
    if (setup == setups.end()) {
      setup =
          setups.emplace(key, sim::BuildExperimentSetup(row.environment)).first;
    }
    row.run.num_trials = num_trials;
    row.run.collect_counters = counters;
    std::vector<sim::TrialResult> results;
    try {
      results =
          sim::RunTrials(setup->second, row.heuristic, row.variant, row.run);
    } catch (const std::exception& error) {
      std::cerr << "ablation: " << row.name << ": " << error.what() << "\n";
      return 1;
    }
    for (const Column& column : grid.columns) {
      row.values.push_back(
          Statistic(column, results, setup->second.energy_budget));
    }
    if (!grid.plot.empty()) row.plot = Values(grid.plot_source, results);
    for (const sim::TrialResult& trial : results) {
      row.violations += trial.validation.violations;
      row.violating_trials += trial.validation.ok() ? 0 : 1;
    }
  }

  const bool pairs = std::ranges::any_of(
      rows, [](const Row& row) { return row.name != row.cell; });
  std::vector<std::string> header;
  for (const Axis& axis : grid.axes) header.push_back(axis.name);
  if (pairs) header.insert(header.end(), {"heuristic", "filter"});
  for (const Column& column : grid.columns) header.push_back(column.label);
  stats::Table table(header);
  std::vector<benchio::CapturedRun> runs;
  for (const Row& row : rows) {
    std::vector<std::string> cells;
    std::istringstream labels(row.cell);
    for (std::string label; std::getline(labels, label, '/');) {
      cells.push_back(label);
    }
    if (pairs) cells.insert(cells.end(), {row.heuristic, row.variant});
    benchio::CapturedRun& run = runs.emplace_back();
    run.name = row.name;
    run.iterations = static_cast<std::int64_t>(num_trials);
    for (std::size_t c = 0; c < grid.columns.size(); ++c) {
      cells.push_back(Show(grid.columns[c], row.values[c]));
      if (grid.columns[c].json_key.empty()) continue;
      run.counters.emplace_back(
          grid.columns[c].json_key,
          row.values[c].value_or(std::numeric_limits<double>::quiet_NaN()));
    }
    table.AddRow(cells);
  }
  table.PrintText(std::cout);

  std::vector<stats::BoxPlotSeries> boxes;
  for (const Row& row : rows) {
    if (row.plot.empty()) continue;
    boxes.push_back({row.name, stats::Summarize(row.plot)});
  }
  if (!boxes.empty()) {
    std::cout << "\n" << grid.plot << " per trial:\n"
              << stats::RenderBoxPlot(boxes);
  }
  if (!gnuplot_path.empty()) {
    try {
      stats::WriteGnuplotFigure(gnuplot_path, grid.title, grid.plot, boxes);
    } catch (const std::invalid_argument& error) {
      Fail(std::string("--gnuplot: ") + error.what());
    }
    std::cout << "gnuplot files written to " << gnuplot_path << ".{dat,gp}\n";
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::trunc);
    os << benchio::BenchReportJson(
        "ablation_" + std::filesystem::path(grid_path).stem().string(), runs);
    os.flush();
    if (!os.good()) Fail("--json: cannot write " + json_path);
    std::cout << "\nbench report written to " << json_path << "\n";
  }

  int status = 0;
  if (!gates.empty()) std::cout << '\n';
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const auto [lhs_row, rhs_row, c, strict] = gates[g];
    const std::optional<double> lhs = rows[lhs_row].values[c];
    const std::optional<double> rhs = rows[rhs_row].values[c];
    const bool holds = lhs && rhs && (strict ? *lhs > *rhs : *lhs >= *rhs);
    std::cout << (holds ? "OK   " : "FAIL ") << grid.gates[g] << ": "
              << Show(grid.columns[c], lhs) << " vs "
              << Show(grid.columns[c], rhs) << "\n";
    if (!holds) status = 1;
  }
  for (const Row& row : rows) {
    if (row.violations == 0) continue;
    std::cerr << "ablation: " << row.name << ": validation found "
              << row.violations
              << (row.violations == 1 ? " violation" : " violations") << " in "
              << row.violating_trials << " of " << num_trials << " trials\n";
    status = 1;
  }
  return status;
}
