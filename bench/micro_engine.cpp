// Microbenchmarks of the simulation engine: wall time per full trial for
// each heuristic x filter configuration. Configurations touching rho (LL and
// every *rob* variant) pay for ready-pmf truncations and convolutions;
// scalar-only configurations (SQ/MECT/Random without rob) skip them.
//
// Besides the console table, every run is captured into
// BENCH_micro_engine.json ("ecdra-bench v1", see bench_json.hpp /
// EXPERIMENTS.md); items_per_second is tasks simulated per wall second.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "experiment/paper_config.hpp"
#include "sim/experiment_runner.hpp"

namespace {

using namespace ecdra;

const sim::ExperimentSetup& Setup() {
  static const sim::ExperimentSetup setup = [] {
    sim::SetupOptions options = experiment::PaperSetupOptions();
    // Quarter-size window keeps iterations short without changing the mix
    // of operations being measured.
    options.workload.arrivals =
        workload::ArrivalSpec::PaperBursty(50, 150, 1.0 / 8.0, 1.0 / 48.0);
    options.budget_task_count = 250.0;
    return sim::BuildExperimentSetup(experiment::kPaperMasterSeed, options);
  }();
  return setup;
}

void BM_Trial(benchmark::State& state, const std::string& heuristic,
              const std::string& variant) {
  const sim::ExperimentSetup& setup = Setup();
  std::size_t trial = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::RunSingleTrial(setup, heuristic, variant, trial++ % 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(setup.window_size));
}

void RegisterAll() {
  const policy::PolicyGrid grid = experiment::PaperScenario().grid;
  for (const std::string& heuristic : grid.heuristics) {
    for (const std::string& variant : grid.filter_variants) {
      benchmark::RegisterBenchmark(
          ("BM_Trial/" + heuristic + "/" + variant).c_str(),
          [heuristic, variant](benchmark::State& state) {
            BM_Trial(state, heuristic, variant);
          });
    }
  }
}

const int kRegistered = (RegisterAll(), 0);

}  // namespace

int main(int argc, char** argv) {
  return ecdra::benchio::BenchMain(argc, argv, "micro_engine");
}
