// ecdra_e2e: the end-to-end benchmark (README.md in this directory).
//
//   ecdra_e2e --workload NAME [--seed S] [--threads N] [--seconds X]
//             [--trace [0|1]] [--json PATH] [--smoke]
//
// One process runs one workload: the canonical ScenarioSpec in
// workloads/NAME.spec, driven through the library's user entry points
// (sim::RunTrials per grid cell, sim::RunSingleTrial for the serial scaled
// trial, batch::RunBatchTrials for batch cells). The environment is the
// spec's (its seed = line); --seed (default 14, the paper's) seeds only the
// per-trial draws (ExperimentSetup::master_seed), so every seed sees the
// same cluster and the cost of a decision stays comparable across seeds.
//
// The untraced pass runs the workload in rounds until --seconds have passed
// (one round without --seconds); round 0 runs the --seed trials, each later
// round fresh ones. It reports the end-to-end metrics; tasks_per_s is the
// median over rounds. With --trace, one untraced round is followed by
// traced rounds for --seconds that repeat round 0's trials through the
// "bench.<name>" timing wrappers (layer_wrappers.hpp) with counters on,
// which give the per-layer metrics.
//
// Every result JSON (counters cleared) is checked. At the paper seed round
// 0 must match tests/golden/paper_grid.txt and expected_digests.txt; at any
// seed each re-execution of a round-0 trial (trial 0 of every cell through
// the single-trial entry points, or the traced rounds) must reproduce it. A
// trial that throws or mismatches counts as failed.
//
// Output: one "name value unit" line per metric, "# " info lines, and as
// the last line one JSON object {"correct","attempted","failed","metrics"}
// holding the end-to-end metrics (untraced) or the per-layer metrics
// (--trace). Exit 0 when every trial passed, 1 when any failed, 2 for a
// usage or set-up error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "batch/batch_runner.hpp"
#include "experiment/paper_config.hpp"
#include "layer_wrappers.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "pmf/distribution_factory.hpp"
#include "policy/scenario_spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment_runner.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/workload_generator.hpp"

namespace ecdra::e2e {
namespace {

using Clock = std::chrono::steady_clock;

/// BuildExperimentSetup calls behind setup_s (the median is reported; one
/// call under --smoke).
constexpr int kSetupRepeats = 9;
/// --smoke: trials per cell, and the task count larger workloads shrink to.
constexpr std::size_t kSmokeTrials = 2;
constexpr std::size_t kSmokeTasks = 1000;
/// Golden-grid trials checked per paper-grid / batch-grid cell.
constexpr std::size_t kGoldenTrials = 2;

struct WorkloadInfo {
  std::string_view name;
  /// Trials run one after another through RunSingleTrial (the scaled single
  /// trial); otherwise every cell fans out over --threads.
  bool serial;
  /// Cells of the paper grid: trials 0-1 must match the golden fixture.
  bool golden;
};

constexpr std::array<WorkloadInfo, 4> kWorkloads{{
    {"paper-grid", false, true},
    {"scaled-trial", true, false},
    {"extensions", false, false},
    {"batch-grid", false, true},
}};

class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct Options {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = experiment::kPaperMasterSeed;
  std::size_t threads = 1;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set of this process image, from VmHWM. Not ru_maxrss:
/// Linux carries that across execve, so a benchmark started from a larger
/// parent (run.py's Python) would report the parent's peak.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

/// Nearest-rank percentile (p in (0, 1]); 0 for no samples.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

std::uint64_t ParseUint(std::string_view flag, std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || ptr != text.data() + text.size()) {
    throw UsageError(std::string(flag) + " expects a non-negative integer");
  }
  return value;
}

void PrintUsage(std::ostream& os) {
  os << "usage: ecdra_e2e --workload NAME [--seed S] [--threads N]\n"
        "                 [--seconds X] [--trace [0|1]] [--json PATH]"
        " [--smoke]\n"
        "workloads:";
  for (const WorkloadInfo& info : kWorkloads) os << ' ' << info.name;
  os << "\n";
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  options.threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) throw UsageError(std::string(arg) + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string_view name = value();
      for (const WorkloadInfo& info : kWorkloads) {
        if (info.name == name) options.workload = &info;
      }
      if (options.workload == nullptr) {
        throw UsageError("unknown workload '" + std::string(name) + "'");
      }
    } else if (arg == "--seed") {
      options.seed = ParseUint(arg, value());
    } else if (arg == "--threads") {
      options.threads = ParseUint(arg, value());
      if (options.threads == 0) throw UsageError("--threads must be >= 1");
    } else if (arg == "--seconds") {
      options.seconds = static_cast<double>(ParseUint(arg, value()));
    } else if (arg == "--trace") {
      options.trace = true;
      if (i + 1 < argc && (std::string_view(argv[i + 1]) == "0" ||
                           std::string_view(argv[i + 1]) == "1")) {
        options.trace = std::string_view(argv[++i]) == "1";
      }
    } else if (arg == "--json") {
      options.json_path = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      std::exit(0);
    } else {
      throw UsageError("unknown flag '" + std::string(arg) + "'");
    }
  }
  if (options.workload == nullptr) throw UsageError("--workload is required");
  return options;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

/// Spec text without comment and blank lines, trailing blanks trimmed: the
/// form in which a workload file must equal CanonicalSpecText of its parse.
std::string SpecBody(const std::string& text) {
  std::istringstream is(text);
  std::string body;
  std::string line;
  while (std::getline(is, line)) {
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty() || line.front() == '#') continue;
    body += line;
    body += '\n';
  }
  return body;
}

policy::ScenarioSpec LoadWorkloadSpec(std::string_view name) {
  const std::string path =
      std::string(ECDRA_E2E_DIR) + "/workloads/" + std::string(name) + ".spec";
  const std::string text = ReadFile(path);
  policy::ScenarioSpec spec = policy::ParseScenarioSpec(text);
  if (SpecBody(text) != SpecBody(policy::CanonicalSpecText(spec))) {
    throw std::runtime_error(path +
                             " is not canonical: its key = value lines must "
                             "equal CanonicalSpecText of the parsed spec");
  }
  return spec;
}

/// --smoke: kSmokeTrials trials per cell, and a workload larger than
/// kSmokeTasks shrunk to that size (arrival phases and energy budget scaled
/// alike, so the load shape is kept).
void ShrinkToSmoke(policy::ScenarioSpec& spec) {
  spec.num_trials = kSmokeTrials;
  workload::ArrivalSpec& arrivals = spec.environment.workload.arrivals;
  const std::size_t total = arrivals.total_tasks();
  if (total <= kSmokeTasks) return;
  const double factor =
      static_cast<double>(total) / static_cast<double>(kSmokeTasks);
  for (workload::ArrivalPhase& phase : arrivals.phases) {
    phase.num_tasks = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(static_cast<double>(phase.num_tasks) / factor)));
  }
  spec.environment.budget_task_count /= factor;
}

struct Cell {
  bool batch = false;
  std::string heuristic;
  std::string variant;

  [[nodiscard]] std::string Mode() const {
    return batch ? "batch" : "immediate";
  }
  [[nodiscard]] std::string Label() const {
    return Mode() + "/" + heuristic + "/" + variant;
  }
};

struct Workload {
  const WorkloadInfo* info = nullptr;
  policy::ScenarioSpec spec;
  sim::ExperimentSetup setup;
  std::vector<Cell> cells;
  sim::RunOptions run;
  batch::BatchRunOptions batch;
  /// Fan-out width of both passes (1 for a serial workload).
  std::size_t threads = 1;
  std::vector<double> setup_seconds;
};

sim::ExperimentSetup TimedSetup(const policy::ScenarioSpec& spec,
                                std::vector<double>& seconds) {
  const Clock::time_point start = Clock::now();
  sim::ExperimentSetup setup = sim::BuildExperimentSetup(spec);
  seconds.push_back(SecondsSince(start));
  return setup;
}

Workload PrepareWorkload(const Options& options) {
  policy::ScenarioSpec spec = LoadWorkloadSpec(options.workload->name);
  if (options.smoke) ShrinkToSmoke(spec);

  std::vector<double> setup_seconds;
  const int setup_repeats = options.smoke ? 1 : kSetupRepeats;
  for (int i = 1; i < setup_repeats; ++i) {
    (void)TimedSetup(spec, setup_seconds);
  }
  sim::ExperimentSetup setup = TimedSetup(spec, setup_seconds);

  std::vector<Cell> cells;
  for (const std::string& heuristic : spec.grid.heuristics) {
    for (const std::string& variant : spec.grid.filter_variants) {
      cells.push_back(Cell{false, heuristic, variant});
    }
  }
  for (const std::string& heuristic : spec.grid.batch_heuristics) {
    for (const std::string& variant : spec.grid.filter_variants) {
      cells.push_back(Cell{true, heuristic, variant});
    }
  }
  if (cells.empty()) throw std::runtime_error("workload has an empty grid");

  const std::size_t threads = options.workload->serial ? 1 : options.threads;
  sim::RunOptions run = sim::RunOptionsFromSpec(spec);
  run.num_threads = threads;
  batch::BatchRunOptions batch_options;
  if (!spec.grid.batch_heuristics.empty()) {
    batch_options = batch::BatchRunOptionsFromSpec(spec);
    batch_options.num_threads = threads;
  }
  return Workload{
      .info = options.workload,
      .spec = std::move(spec),
      .setup = std::move(setup),
      .cells = std::move(cells),
      .run = std::move(run),
      .batch = std::move(batch_options),
      .threads = threads,
      .setup_seconds = std::move(setup_seconds),
  };
}

/// A trial's result JSON with its counters cleared: TrialResultToJson
/// serializes non-zero counters, and only the traced pass collects them.
std::string ResultJson(sim::TrialResult result) {
  result.counters = obs::Counters{};
  return sim::TrialResultToJson(result);
}

/// Result JSON per [cell][trial] of one execution of the workload; empty
/// where the trial threw.
using RoundResults = std::vector<std::vector<std::string>>;

// -- Untraced pass ----------------------------------------------------------

std::vector<sim::TrialResult> RunCell(const Workload& w, const Cell& cell) {
  if (cell.batch) {
    batch::BatchRunOptions options = w.batch;
    options.filter_variant = cell.variant;
    return batch::RunBatchTrials(w.setup, cell.heuristic, options);
  }
  if (!w.info->serial) {
    return sim::RunTrials(w.setup, cell.heuristic, cell.variant, w.run);
  }
  std::vector<sim::TrialResult> trials;
  for (std::size_t trial = 0; trial < w.run.num_trials; ++trial) {
    trials.push_back(sim::RunSingleTrial(w.setup, cell.heuristic,
                                         cell.variant, trial, w.run));
  }
  return trials;
}

struct UntracedRound {
  RoundResults results;
  /// Summed time inside the entry-point calls, and the CPU they used.
  double wall = 0.0;
  double cpu = 0.0;
  std::uint64_t tasks = 0;

  [[nodiscard]] double tasks_per_s() const {
    return Ratio(static_cast<double>(tasks), wall);
  }
};

UntracedRound RunUntracedRound(const Workload& w) {
  UntracedRound round;
  for (const Cell& cell : w.cells) {
    std::vector<sim::TrialResult> trials;
    const double cpu_start = CpuSeconds();
    const Clock::time_point start = Clock::now();
    try {
      trials = RunCell(w, cell);
    } catch (const std::exception& error) {
      std::cerr << "ecdra_e2e: " << cell.Label() << ": " << error.what()
                << "\n";
      trials.clear();
    }
    round.wall += SecondsSince(start);
    round.cpu += CpuSeconds() - cpu_start;

    std::vector<std::string> jsons(w.spec.num_trials);
    for (std::size_t t = 0; t < trials.size() && t < jsons.size(); ++t) {
      round.tasks += trials[t].window_size;
      jsons[t] = ResultJson(std::move(trials[t]));
    }
    round.results.push_back(std::move(jsons));
  }
  return round;
}

/// Trial seed of untraced round `round`: round 0 runs the --seed trials
/// themselves (the ones the golden grid and expected_digests.txt pin);
/// later rounds continue the Monte-Carlo study with fresh trials, so a
/// longer run averages over more inputs instead of repeating them.
std::uint64_t RoundSeed(std::uint64_t seed, std::size_t round) {
  if (round == 0) return seed;
  return util::RngStream(seed).Substream("round", round).base_seed();
}

/// Trial 0 of every cell again, through the single-trial entry points
/// (RunSingleTrial, RunBatchTrial) on a pool of the workload's width: each
/// must match the fan-out result of the same trial.
RoundResults RunFirstTrials(const Workload& w) {
  util::ThreadPool pool(w.threads);
  std::vector<std::future<sim::TrialResult>> futures;
  for (const Cell& cell : w.cells) {
    futures.push_back(pool.Submit([&w, &cell] {
      if (!cell.batch) {
        return sim::RunSingleTrial(w.setup, cell.heuristic, cell.variant, 0,
                                   w.run);
      }
      batch::BatchRunOptions options = w.batch;
      options.filter_variant = cell.variant;
      return batch::RunBatchTrial(w.setup, cell.heuristic, 0, options);
    }));
  }
  RoundResults results;
  for (std::size_t c = 0; c < futures.size(); ++c) {
    std::string json;
    try {
      json = ResultJson(futures[c].get());
    } catch (const std::exception& error) {
      std::cerr << "ecdra_e2e: " << w.cells[c].Label()
                << " single-trial re-run: " << error.what() << "\n";
    }
    results.push_back({std::move(json)});
  }
  return results;
}

// -- Traced pass ------------------------------------------------------------

/// Options of the traced pass: counters on, every registry-reached policy
/// replaced by its "bench." timing wrapper.
struct TracedOptions {
  sim::RunOptions run;
  batch::BatchRunOptions batch;
  bool wrap_rob = true;
};

TracedOptions MakeTracedOptions(const Workload& w) {
  TracedOptions traced{.run = w.run, .batch = w.batch, .wrap_rob = true};
  traced.run.collect_counters = true;
  traced.run.governor = TimedName(w.run.governor);
  traced.run.gang_placement = TimedName(w.run.gang_placement);
  // The admission policy only exists in streaming mode; a renamed one in a
  // fixed-trace run would read as a stray stream setting.
  if (traced.run.mode == policy::RunMode::kStream) {
    traced.run.stream.admission = TimedName(w.run.stream.admission);
  }
  traced.batch.collect_counters = true;
  traced.wrap_rob = !w.spec.environment.workload.jobs.enabled;
  return traced;
}

struct TracedTrial {
  std::string json;
  obs::Counters counters;
  std::uint64_t tasks = 0;
  double seconds = 0.0;
};

TracedTrial RunTracedTrial(const Workload& w, const TracedOptions& traced,
                           const Cell& cell, std::size_t trial) {
  const std::string heuristic = TimedName(cell.heuristic);
  const std::string variant = TimedVariant(cell.variant, traced.wrap_rob);
  batch::BatchRunOptions batch_options = traced.batch;
  batch_options.filter_variant = variant;

  const Clock::time_point start = Clock::now();
  sim::TrialResult result =
      cell.batch
          ? batch::RunBatchTrial(w.setup, heuristic, trial, batch_options)
          : sim::RunSingleTrial(w.setup, heuristic, variant, trial,
                                traced.run);
  TracedTrial out;
  out.seconds = SecondsSince(start);
  out.counters = result.counters;
  out.tasks = result.window_size;
  out.json = ResultJson(std::move(result));
  return out;
}

/// Traced-pass totals over every traced round; [0] immediate, [1] batch.
struct TraceTotals {
  std::array<obs::Counters, 2> counters;
  std::array<LayerTotals, 2> layers;
  std::array<double, 2> trial_seconds{};
  std::array<std::uint64_t, 2> trials{};
  std::uint64_t tasks = 0;
  std::vector<double> trial_ms;
  /// tasks / fan-out wall time, per traced round.
  std::vector<double> round_rates;
};

RoundResults RunTracedRound(const Workload& w, const TracedOptions& traced,
                            util::ThreadPool& pool, TraceTotals& totals) {
  RoundResults results(w.cells.size());
  double wall = 0.0;
  std::uint64_t tasks = 0;
  // Immediate cells first, then batch cells, so the shared filter wrappers'
  // totals can be told apart by stack.
  for (const bool batch_stack : {false, true}) {
    const std::size_t stack = batch_stack ? 1 : 0;
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      const Cell& cell = w.cells[c];
      if (cell.batch != batch_stack) continue;
      // One fan-out per cell with a barrier after it, like RunTrials.
      const Clock::time_point start = Clock::now();
      std::vector<std::future<TracedTrial>> futures;
      for (std::size_t t = 0; t < w.spec.num_trials; ++t) {
        futures.push_back(pool.Submit([&w, &traced, &cell, t] {
          return RunTracedTrial(w, traced, cell, t);
        }));
      }
      results[c].assign(w.spec.num_trials, std::string());
      for (std::size_t t = 0; t < futures.size(); ++t) {
        try {
          TracedTrial trial = futures[t].get();
          totals.counters[stack].Merge(trial.counters);
          totals.trial_seconds[stack] += trial.seconds;
          ++totals.trials[stack];
          totals.trial_ms.push_back(trial.seconds * 1e3);
          tasks += trial.tasks;
          results[c][t] = std::move(trial.json);
        } catch (const std::exception& error) {
          std::cerr << "ecdra_e2e: traced " << cell.Label() << " trial " << t
                    << ": " << error.what() << "\n";
        }
      }
      wall += SecondsSince(start);
    }
    const LayerTotals layers = TakeLayerTotals();
    for (std::size_t l = 0; l < layers.size(); ++l) {
      totals.layers[stack][l].Merge(layers[l]);
    }
  }
  totals.tasks += tasks;
  totals.round_rates.push_back(Ratio(static_cast<double>(tasks), wall));
  return results;
}

/// Mean wall time of GenerateWorkload on each trial's "workload" substream
/// (the draw RunSingleTrial makes before its engine starts).
double GenerateSecondsPerTrial(const Workload& w) {
  const Clock::time_point start = Clock::now();
  std::size_t generated = 0;
  for (std::size_t trial = 0; trial < w.spec.num_trials; ++trial) {
    util::RngStream rng = util::RngStream(w.setup.master_seed)
                              .Substream("trial", trial)
                              .Substream("workload");
    generated +=
        workload::GenerateWorkload(w.setup.types, w.setup.workload, rng).size();
  }
  if (generated == 0) throw std::runtime_error("generated no tasks");
  return SecondsSince(start) / static_cast<double>(w.spec.num_trials);
}

/// Clock control: 200 DiscretizedGamma(750, 0.25) pmfs at the paper's 24
/// impulses, in ms (median of 5 repetitions). Fixed work outside every
/// trial's hot path (it runs only in set-up), so a change to the trial
/// layers leaves it alone and drift here is the host's.
double GammaControlMs() {
  const pmf::DiscretizeOptions discretize{.num_impulses = 24};
  std::vector<double> ms;
  std::size_t impulses = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < 200; ++i) {
      impulses += pmf::DiscretizedGamma(750.0, 0.25, discretize).size();
    }
    ms.push_back(SecondsSince(start) * 1e3);
  }
  if (impulses == 0) throw std::runtime_error("empty gamma pmfs");
  return Median(ms);
}

// -- Correctness ------------------------------------------------------------

/// "<key> <hex>" lines ('#' comments skipped) from a file into key -> hex,
/// where the key is every field but the last, space-joined.
std::map<std::string, std::string> LoadHashFile(const std::string& path) {
  std::istringstream is(ReadFile(path));
  std::map<std::string, std::string> hashes;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line.front() == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      throw std::runtime_error(path + ": malformed line '" + line + "'");
    }
    hashes[line.substr(0, space)] = line.substr(space + 1);
  }
  return hashes;
}

std::string CellDigest(const std::vector<std::string>& jsons) {
  std::string joined;
  for (const std::string& json : jsons) {
    joined += json;
    joined += '\n';
  }
  return policy::Fnv1a64Hex(joined);
}

/// Counts every trial execution and its failures. Untraced round 0 (the
/// --seed trials) is the reference: at the paper seed its trials are checked
/// against the golden grid and its cells against expected_digests.txt, and
/// every re-execution of its trials (the single-trial re-runs, the traced
/// rounds) must reproduce it byte for byte. Later untraced rounds draw fresh
/// trials, so they fail only by throwing.
class TrialChecker {
 public:
  TrialChecker(const Workload& w, bool smoke, bool paper_seed)
      : w_(w), smoke_(smoke), paper_seed_(paper_seed) {}

  void CheckReference(const RoundResults& results) {
    reference_ = results;
    bad_.clear();
    for (const std::vector<std::string>& cell : results) {
      bad_.emplace_back(cell.size(), false);
    }
    const std::string size = smoke_ ? "smoke" : "full";
    for (std::size_t c = 0; c < results.size(); ++c) {
      cell_digests_.emplace_back(std::string(w_.info->name) + " " + size +
                                     " " + w_.cells[c].Label(),
                                 CellDigest(results[c]));
    }
    if (paper_seed_) CheckAgainstCommittedHashes(results);
    CheckRepeat(results);
  }

  void CheckFresh(const RoundResults& results) {
    for (const std::vector<std::string>& cell : results) {
      for (const std::string& json : cell) Count(!json.empty());
    }
  }

  /// results[c][t] re-executes reference trial t of cell c (a cell may list
  /// fewer trials than the reference).
  void CheckRepeat(const RoundResults& results) {
    for (std::size_t c = 0; c < results.size(); ++c) {
      for (std::size_t t = 0; t < results[c].size(); ++t) {
        Count(!bad_[c][t] && !results[c][t].empty() &&
              results[c][t] == reference_[c][t]);
      }
    }
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// ("<workload> <size> <cell>", digest) per cell of the reference round,
  /// the expected_digests.txt form.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  cell_digests() const noexcept {
    return cell_digests_;
  }

 private:
  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void CheckAgainstCommittedHashes(const RoundResults& results) {
    if (w_.info->golden) {
      const auto golden = LoadHashFile(ECDRA_GOLDEN_PATH);
      for (std::size_t c = 0; c < results.size(); ++c) {
        const Cell& cell = w_.cells[c];
        for (std::size_t t = 0; t < kGoldenTrials && t < results[c].size();
             ++t) {
          const std::string key = cell.Mode() + " " + cell.heuristic + " " +
                                  cell.variant + " " + std::to_string(t);
          const auto it = golden.find(key);
          if (it == golden.end() ||
              it->second != policy::Fnv1a64Hex(results[c][t])) {
            std::cerr << "ecdra_e2e: " << cell.Label() << " trial " << t
                      << " differs from the golden paper grid\n";
            bad_[c][t] = true;
          }
        }
      }
    }

    const auto expected =
        LoadHashFile(std::string(ECDRA_E2E_DIR) + "/expected_digests.txt");
    for (std::size_t c = 0; c < results.size(); ++c) {
      const auto& [key, digest] = cell_digests_[c];
      const auto it = expected.find(key);
      if (it == expected.end() || it->second != digest) {
        std::cerr << "ecdra_e2e: " << key << " digest " << digest
                  << " differs from expected_digests.txt\n";
        bad_[c].assign(bad_[c].size(), true);
      }
    }
  }

  const Workload& w_;
  bool smoke_;
  bool paper_seed_;
  RoundResults reference_;
  std::vector<std::vector<bool>> bad_;
  std::vector<std::pair<std::string, std::string>> cell_digests_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// -- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Metric> EndToEndMetrics(const Workload& w,
                                    const std::vector<UntracedRound>& rounds,
                                    double peak_rss_mib) {
  std::vector<double> rates;
  for (const UntracedRound& round : rounds) {
    rates.push_back(round.tasks_per_s());
  }
  return {
      {"tasks_per_s", Median(rates), "tasks/s"},
      {"setup_s", Median(w.setup_seconds), "s"},
      {"peak_rss_mb", peak_rss_mib, "MiB"},
  };
}

std::vector<Metric> LayerMetrics(const Workload& w,
                                 const std::vector<UntracedRound>& rounds,
                                 const TraceTotals& totals,
                                 double generate_seconds, double gamma_ms,
                                 std::vector<std::string>& violations) {
  const LayerTotals& imm_layers = totals.layers[0];
  const LayerTotals& batch_layers = totals.layers[1];
  const obs::Counters& imm = totals.counters[0];
  const obs::Counters& bat = totals.counters[1];
  obs::Counters all = imm;
  all.Merge(bat);

  const auto layer = [](const LayerTotals& layers, Layer l) {
    return layers[static_cast<std::size_t>(l)];
  };
  const auto both = [&](Layer l) {
    LayerStats stats = layer(imm_layers, l);
    stats.Merge(layer(batch_layers, l));
    return stats;
  };
  const auto filters = [&](const LayerTotals& layers) {
    return layer(layers, Layer::kFilterEn).seconds +
           layer(layers, Layer::kFilterRob).seconds +
           layer(layers, Layer::kFilterOther).seconds;
  };
  const auto pruned = [](const LayerStats& stats) {
    return stats.items_in == 0
               ? 0.0
               : 1.0 - static_cast<double>(stats.items_out) /
                           static_cast<double>(stats.items_in);
  };

  const double trial_s = totals.trial_seconds[0] + totals.trial_seconds[1];
  const double trials =
      static_cast<double>(totals.trials[0] + totals.trials[1]);
  const double decisions = static_cast<double>(all.decisions());
  const double imm_decisions = static_cast<double>(imm.decisions());
  const double bat_decisions = static_cast<double>(bat.decisions());
  const auto per_decision = [&](std::uint64_t count) {
    return Ratio(static_cast<double>(count), decisions);
  };
  const auto per_trial = [&](double count) { return Ratio(count, trials); };

  // Wrapped calls nest inside the counted decision time, which nests inside
  // the trial spans; anything else means the attribution is broken.
  const double imm_wrapped = filters(imm_layers) +
                             layer(imm_layers, Layer::kHeuristic).seconds +
                             layer(imm_layers, Layer::kGang).seconds;
  const double bat_wrapped =
      filters(batch_layers) +
      layer(batch_layers, Layer::kBatchHeuristic).seconds;
  const auto check_nesting = [&](std::string_view stack, double wrapped,
                                 double decision, double spans) {
    if (wrapped <= decision && decision <= spans) return;
    violations.push_back(std::string(stack) + ": wrapped layers " +
                         obs::json::Number(wrapped) + " s, decisions " +
                         obs::json::Number(decision) + " s, trials " +
                         obs::json::Number(spans) + " s");
  };
  check_nesting("immediate", imm_wrapped, imm.decision_seconds,
                totals.trial_seconds[0]);
  check_nesting("batch", bat_wrapped, bat.decision_seconds,
                totals.trial_seconds[1]);

  const double engine_self = std::max(
      0.0, trial_s - all.decision_seconds - generate_seconds * trials);
  const double candgen = std::max(0.0, imm.decision_seconds - imm_wrapped);
  const double fault_events = static_cast<double>(
      all.failures_injected + all.repairs_applied + all.throttles_applied +
      all.domain_outages_applied + all.domain_repairs_applied);

  double untraced_wall = 0.0;
  double untraced_cpu = 0.0;
  for (const UntracedRound& round : rounds) {
    untraced_wall += round.wall;
    untraced_cpu += round.cpu;
  }

  const LayerStats rob = both(Layer::kFilterRob);
  const LayerStats en = both(Layer::kFilterEn);
  const LayerStats heuristic = layer(imm_layers, Layer::kHeuristic);
  const LayerStats gang = layer(imm_layers, Layer::kGang);
  const LayerStats governor = layer(imm_layers, Layer::kGovernor);
  const LayerStats admission = layer(imm_layers, Layer::kAdmission);
  const LayerStats batch_heuristic =
      layer(batch_layers, Layer::kBatchHeuristic);

  return {
      {"core.filter.rob.us_per_call", rob.us_per_call(), "us"},
      {"core.filter.rob.share", Ratio(rob.seconds, trial_s), "fraction"},
      {"pmf.prob_sum_leq_per_decision", per_decision(all.pmf_prob_sum_leq),
       "count"},
      {"pmf.convolutions_per_decision", per_decision(all.pmf_convolutions),
       "count"},
      {"pmf.truncations_per_decision", per_decision(all.pmf_truncations),
       "count"},
      {"pmf.compactions_per_decision", per_decision(all.pmf_compactions),
       "count"},
      {"robustness.ready_pmf_hit_rate", all.ready_pmf_hit_rate(), "fraction"},
      {"robustness.ready_pmf_misses_per_decision",
       per_decision(all.ready_pmf_misses), "count"},
      {"core.heuristic.us_per_call", heuristic.us_per_call(), "us"},
      {"core.heuristic.share", Ratio(heuristic.seconds, trial_s), "fraction"},
      {"core.decision_us_mean",
       Ratio(imm.decision_seconds * 1e6, imm_decisions), "us"},
      {"core.decision_share", Ratio(imm.decision_seconds, trial_s),
       "fraction"},
      {"core.candgen_us_per_decision", Ratio(candgen * 1e6, imm_decisions),
       "us"},
      {"core.candidates_per_decision",
       Ratio(static_cast<double>(imm.candidates_generated), imm_decisions),
       "count"},
      {"core.filter.en.us_per_call", en.us_per_call(), "us"},
      {"core.prune.en_ratio", pruned(en), "fraction"},
      {"core.prune.rob_ratio", pruned(rob), "fraction"},
      {"sim.engine_self_share", Ratio(engine_self, trial_s), "fraction"},
      {"sim.engine_self_us_per_task",
       Ratio(engine_self * 1e6, static_cast<double>(totals.tasks)), "us"},
      {"core.gang.us_per_call", gang.us_per_call(), "us"},
      {"core.gang.calls_per_trial",
       per_trial(static_cast<double>(gang.calls)), "count"},
      {"governor.us_per_call", governor.us_per_call(), "us"},
      {"governor.calls_per_trial",
       per_trial(static_cast<double>(governor.calls)), "count"},
      {"stream.admission.us_per_call", admission.us_per_call(), "us"},
      {"stream.admission.calls_per_trial",
       per_trial(static_cast<double>(admission.calls)), "count"},
      {"stream.windows_per_trial",
       per_trial(static_cast<double>(all.stream_windows)), "count"},
      {"fault.events_per_trial", per_trial(fault_events), "count"},
      {"fault.recoveries_per_trial",
       per_trial(static_cast<double>(all.tasks_remapped)), "count"},
      {"pmf.max_ops_per_decision", per_decision(all.pmf_max_ops), "count"},
      {"batch.heuristic.us_per_call", batch_heuristic.us_per_call(), "us"},
      {"batch.decision_us_mean",
       Ratio(bat.decision_seconds * 1e6, bat_decisions), "us"},
      {"batch.candidates_per_decision",
       Ratio(static_cast<double>(bat.candidates_generated), bat_decisions),
       "count"},
      {"sim.trial_ms.p50", Percentile(totals.trial_ms, 0.5), "ms"},
      {"sim.trial_ms.p90", Percentile(totals.trial_ms, 0.9), "ms"},
      {"sim.runner_cpu_util",
       Ratio(untraced_cpu,
             untraced_wall * static_cast<double>(w.threads)),
       "fraction"},
      {"workload.generate_ms_per_trial", generate_seconds * 1e3, "ms"},
      {"obs.traced_tasks_per_s", Median(totals.round_rates), "tasks/s"},
      {"control.gamma_ms", gamma_ms, "ms"},
  };
}

/// Appends "key": to a JSON object under construction.
void AppendKey(std::string& out, std::string_view key) {
  out += '"';
  out += obs::json::Escape(key);
  out += "\":";
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    AppendKey(out, metrics[i].name);
    out += "{\"value\":";
    out += obs::json::Number(metrics[i].value);
    out += ",\"unit\":\"";
    out += obs::json::Escape(metrics[i].unit);
    out += "\"}";
  }
  out += '}';
  return out;
}

/// An "ecdra-bench v1" document (tools/compare_bench.py) with one row
/// e2e/<workload>: ns_per_op is host ns per simulated task, counters every
/// printed metric.
void WriteBenchJson(const std::string& path, const Options& options,
                    std::uint64_t attempted, double tasks_per_s,
                    const std::vector<Metric>& metrics) {
  std::string out = "{\"schema\":\"ecdra-bench v1\",\"suite\":\"e2e\",";
  AppendKey(out, "nproc");
  out += std::to_string(std::thread::hardware_concurrency());
  out += ',';
  AppendKey(out, "threads");
  out += std::to_string(options.threads);
  out += ',';
  AppendKey(out, "seed");
  out += std::to_string(options.seed);
  out += ',';
  AppendKey(out, "traced");
  out += options.trace ? "true" : "false";
  out += ",\"results\":[{\"name\":\"e2e/";
  out += options.workload->name;
  out += "\",";
  AppendKey(out, "iterations");
  out += std::to_string(attempted);
  out += ',';
  AppendKey(out, "ns_per_op");
  out += obs::json::Number(Ratio(1e9, tasks_per_s));
  out += ",\"counters\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    AppendKey(out, metrics[i].name);
    out += obs::json::Number(metrics[i].value);
  }
  out += "}}]}\n";
  std::ofstream os(path, std::ios::trunc);
  os << out;
  os.flush();
  if (!os.good()) throw std::runtime_error("cannot write " + path);
}

int Run(const Options& options) {
  const double gamma_ms = GammaControlMs();
  Workload w = PrepareWorkload(options);
  if (options.trace) RegisterTimedPolicies();
  TrialChecker checker(w, options.smoke,
                       options.seed == experiment::kPaperMasterSeed);

  // Untraced pass: rounds until --seconds (one round when tracing, which
  // only needs the reference results and the runner's CPU utilization).
  std::vector<UntracedRound> rounds;
  const Clock::time_point untraced_start = Clock::now();
  do {
    w.setup.master_seed = RoundSeed(options.seed, rounds.size());
    rounds.push_back(RunUntracedRound(w));
    if (rounds.size() == 1) {
      checker.CheckReference(rounds.back().results);
    } else {
      checker.CheckFresh(rounds.back().results);
    }
    rounds.back().results.clear();
  } while (!options.trace && SecondsSince(untraced_start) < options.seconds);
  const double peak_rss_mib = PeakRssMiB();
  // Everything below re-executes round 0.
  w.setup.master_seed = options.seed;

  std::vector<Metric> printed = EndToEndMetrics(w, rounds, peak_rss_mib);
  std::vector<Metric> reported = printed;
  double ns_rate = printed.front().value;
  std::vector<std::string> violations;

  if (options.trace) {
    const TracedOptions traced = MakeTracedOptions(w);
    TraceTotals totals;
    util::ThreadPool pool(w.threads);
    const Clock::time_point traced_start = Clock::now();
    do {
      checker.CheckRepeat(RunTracedRound(w, traced, pool, totals));
    } while (SecondsSince(traced_start) < options.seconds);
    reported = LayerMetrics(w, rounds, totals, GenerateSecondsPerTrial(w),
                            gamma_ms, violations);
    printed.insert(printed.end(), reported.begin(), reported.end());
    ns_rate = Median(totals.round_rates);
  } else {
    checker.CheckRepeat(RunFirstTrials(w));
    printed.push_back({"control.gamma_ms", gamma_ms, "ms"});
  }

  std::cout << "# workload " << w.info->name << " seed " << options.seed
            << " threads " << w.threads << " trials/cell " << w.spec.num_trials
            << " cells " << w.cells.size() << (options.smoke ? " smoke" : "")
            << "\n# untraced tasks_per_s by round:";
  for (const UntracedRound& round : rounds) {
    std::cout << ' ' << obs::json::Number(round.tasks_per_s());
  }
  std::cout << "\n";
  if (options.seed == experiment::kPaperMasterSeed) {
    for (const auto& [key, digest] : checker.cell_digests()) {
      std::cout << "# digest " << key << ' ' << digest << "\n";
    }
  }
  for (const Metric& metric : printed) {
    std::cout << metric.name << ' ' << obs::json::Number(metric.value) << ' '
              << metric.unit << "\n";
  }
  for (const std::string& violation : violations) {
    std::cerr << "ecdra_e2e: layer times do not nest: " << violation << "\n";
  }
  if (!options.json_path.empty()) {
    WriteBenchJson(options.json_path, options, checker.attempted(), ns_rate,
                   printed);
  }

  const bool correct = checker.failed() == 0 && violations.empty();
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << checker.attempted()
            << ",\"failed\":" << checker.failed()
            << ",\"metrics\":" << MetricsObject(reported) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ecdra::e2e

int main(int argc, char** argv) {
  using namespace ecdra::e2e;
  Options options;
  try {
    options = ParseArgs(argc, argv);
  } catch (const UsageError& error) {
    std::cerr << "ecdra_e2e: " << error.what() << "\n";
    PrintUsage(std::cerr);
    return 2;
  }
  try {
    return Run(options);
  } catch (const std::exception& error) {
    std::cerr << "ecdra_e2e: " << error.what() << "\n";
    return 2;
  }
}
