// Monte-Carlo runner for batch-mode configurations, mirroring
// sim::RunTrials so immediate-mode and batch-mode results are directly
// comparable (same ExperimentSetup, same per-trial workloads via the same
// substreams, same TrialResult format).
#pragma once

#include <string>
#include <vector>

#include "batch/batch_engine.hpp"
#include "core/factory.hpp"
#include "obs/trace.hpp"
#include "sim/experiment_runner.hpp"

namespace ecdra::batch {

struct BatchRunOptions {
  std::size_t num_trials = 50;
  sim::IdlePolicy idle_policy = sim::IdlePolicy::kDeepestPState;
  sim::CancelPolicy cancel_policy = sim::CancelPolicy::kRunToCompletion;
  bool collect_task_records = false;
  std::size_t num_threads = 0;
  /// Filter configuration is the immediate stack's, verbatim: a registered
  /// variant name and the shared FilterChainOptions (core::MakeFilterChain
  /// builds the chain — batch mode has no separate filter options).
  std::string filter_variant = "en+rob";
  core::FilterChainOptions filter_options;
  /// Per-trial observability, mirroring sim::RunOptions.
  bool collect_counters = false;
  obs::TraceSink* trace_sink = nullptr;
};

/// The BatchRunOptions a ScenarioSpec describes (the shared result-shaping
/// knobs batch mode has). A non-default stream block is refused with
/// policy::StreamSpecError; any other knob the batch stack cannot honor
/// (faults, a non-static governor, econ, gang jobs, DVFS latency,
/// stochastic power — the table's kNoBatch rows) with
/// policy::BatchSpecError. Both are one line naming the offending keys.
[[nodiscard]] BatchRunOptions BatchRunOptionsFromSpec(
    const policy::ScenarioSpec& spec);

/// Runs one deterministic batch-mode trial; `heuristic` is a registered
/// batch heuristic (BatchHeuristicNames() lists the built-ins).
[[nodiscard]] sim::TrialResult RunBatchTrial(const sim::ExperimentSetup& setup,
                                             const std::string& heuristic,
                                             std::size_t trial_index,
                                             const BatchRunOptions& options = {});

/// Runs `options.num_trials` batch trials in parallel, ordered by index.
[[nodiscard]] std::vector<sim::TrialResult> RunBatchTrials(
    const sim::ExperimentSetup& setup, const std::string& heuristic,
    const BatchRunOptions& options = {});

}  // namespace ecdra::batch
