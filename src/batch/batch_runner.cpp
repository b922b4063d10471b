#include "batch/batch_runner.hpp"

#include <future>

#include "core/factory.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"
#include "workload/workload_generator.hpp"

namespace ecdra::batch {

BatchRunOptions BatchRunOptionsFromSpec(const policy::ScenarioSpec& spec) {
  // Typed refusals naming the offending keys: batch mode plans the whole
  // window against a fixed budget with no fault, governor, gang, econ, or
  // stream machinery, so computing anyway would report the wrong thing.
  policy::RequireBatchCompatible(spec);
  BatchRunOptions options;
  options.num_trials = spec.num_trials;
  options.idle_policy = spec.idle_policy;
  options.cancel_policy = spec.cancel_policy;
  options.filter_options = spec.filter_options;
  return options;
}

sim::TrialResult RunBatchTrial(const sim::ExperimentSetup& setup,
                               const std::string& heuristic,
                               std::size_t trial_index,
                               const BatchRunOptions& options) {
  // Identical substream derivation to sim::RunSingleTrial: the same trial
  // index sees the same workload and the same execution-time draws.
  util::RngStream trial_rng =
      util::RngStream(setup.master_seed).Substream("trial", trial_index);
  util::RngStream workload_rng = trial_rng.Substream("workload");
  std::vector<workload::Task> tasks =
      workload::GenerateWorkload(setup.types, setup.workload, workload_rng);

  BatchScheduler scheduler(
      setup.cluster, setup.types, MakeBatchHeuristic(heuristic),
      core::MakeFilterChain(options.filter_variant, options.filter_options),
      setup.energy_budget, setup.window_size);
  const BatchTrialOptions trial_options{
      .energy_budget = setup.energy_budget,
      .idle_policy = options.idle_policy,
      .cancel_policy = options.cancel_policy,
      .collect_task_records = options.collect_task_records,
      .collect_counters = options.collect_counters,
      .trace_sink = options.trace_sink,
      .trial_index = trial_index,
  };
  BatchEngine engine(setup.cluster, setup.types, std::move(tasks), scheduler,
                     trial_options, trial_rng.Substream("sim"));
  return engine.Run();
}

std::vector<sim::TrialResult> RunBatchTrials(const sim::ExperimentSetup& setup,
                                             const std::string& heuristic,
                                             const BatchRunOptions& options) {
  ECDRA_REQUIRE(options.num_trials >= 1, "need at least one trial");
  util::ThreadPool pool(options.num_threads);
  std::vector<std::future<sim::TrialResult>> futures;
  futures.reserve(options.num_trials);
  for (std::size_t trial = 0; trial < options.num_trials; ++trial) {
    futures.push_back(pool.Submit([&, trial] {
      return RunBatchTrial(setup, heuristic, trial, options);
    }));
  }
  std::vector<sim::TrialResult> results;
  results.reserve(options.num_trials);
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

}  // namespace ecdra::batch
