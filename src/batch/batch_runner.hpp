// Monte-Carlo runner for batch-mode configurations: sim::RunSingleTrial and
// sim::RunTrials with RunMode::kBatch, so immediate-mode and batch-mode
// results are directly comparable (same ExperimentSetup, same per-trial
// workloads via the same substreams, same sim::Engine event loop, same
// RunSweep fan-out and TrialResult format).
#pragma once

#include <string>
#include <vector>

// Callers reach BatchScheduler and core::MakeFilterChain through this header.
#include "batch/batch_scheduler.hpp"
#include "core/factory.hpp"
#include "sim/experiment_runner.hpp"

namespace ecdra::batch {

/// sim::RunOptions plus the filter variant, which the immediate runner takes
/// per call. Filter configuration is the immediate stack's, verbatim: a
/// registered variant name and the shared FilterChainOptions
/// (core::MakeFilterChain builds the chain — batch mode has no separate
/// filter options). The runner sets `mode` to RunMode::kBatch on its copy.
struct BatchRunOptions : sim::RunOptions {
  std::string filter_variant = "en+rob";
};

/// The BatchRunOptions a ScenarioSpec describes (RunOptionsFromSpec's
/// knobs, trial count and validation mode). A non-default stream block is
/// refused with policy::StreamSpecError; any other knob the batch stack
/// cannot honor (faults, a non-static governor, econ, gang jobs, DVFS
/// latency, stochastic power — the table's kNoBatch rows) with
/// policy::BatchSpecError. Both are one line naming the offending keys.
[[nodiscard]] BatchRunOptions BatchRunOptionsFromSpec(
    const policy::ScenarioSpec& spec);

/// Runs one deterministic batch-mode trial; `heuristic` is a registered
/// batch heuristic (BatchHeuristicRegistry().Names() lists them). Throws
/// the trial's own exception.
[[nodiscard]] sim::TrialResult RunBatchTrial(const sim::ExperimentSetup& setup,
                                             const std::string& heuristic,
                                             std::size_t trial_index,
                                             const BatchRunOptions& options = {});

/// sim::RunTrials in batch mode: `options.num_trials` trials through
/// RunSweep (isolation, retries, watchdog, trace file, checkpoint/resume),
/// ordered by index. A failed trial throws std::runtime_error naming it
/// after the other trials finish.
[[nodiscard]] std::vector<sim::TrialResult> RunBatchTrials(
    const sim::ExperimentSetup& setup, const std::string& heuristic,
    const BatchRunOptions& options = {});

}  // namespace ecdra::batch
