#include "batch/batch_runner.hpp"

namespace ecdra::batch {
namespace {

/// The sim::RunOptions slice of `options`, in batch mode.
sim::RunOptions BatchMode(const BatchRunOptions& options) {
  sim::RunOptions run = options;
  run.mode = policy::RunMode::kBatch;
  return run;
}

}  // namespace

BatchRunOptions BatchRunOptionsFromSpec(const policy::ScenarioSpec& spec) {
  // Typed refusals naming the offending keys: batch mode plans the whole
  // window against a fixed budget with no fault, governor, gang, econ, or
  // stream machinery, so computing anyway would report the wrong thing.
  policy::RequireBatchCompatible(spec);
  BatchRunOptions options;
  static_cast<sim::RunOptions&>(options) = sim::RunOptionsFromSpec(spec);
  return options;
}

sim::TrialResult RunBatchTrial(const sim::ExperimentSetup& setup,
                               const std::string& heuristic,
                               std::size_t trial_index,
                               const BatchRunOptions& options) {
  return sim::RunSingleTrial(setup, heuristic, options.filter_variant,
                             trial_index, BatchMode(options));
}

std::vector<sim::TrialResult> RunBatchTrials(const sim::ExperimentSetup& setup,
                                             const std::string& heuristic,
                                             const BatchRunOptions& options) {
  return sim::RunTrials(setup, heuristic, options.filter_variant,
                        BatchMode(options));
}

}  // namespace ecdra::batch
