// Experiment orchestration: builds the §VI environment once (cluster, ETC
// matrix, pmf table, deadline ingredients, energy budget — all "held
// constant" across trials) and runs Monte-Carlo trials whose arrivals, task
// types, deadlines, and sampled actual execution times vary by trial index.
//
// Trials are embarrassingly parallel and deterministic per (master seed,
// trial index, heuristic, filter variant); the runner fans them out over a
// thread pool.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_builder.hpp"
#include "core/factory.hpp"
#include "obs/trace.hpp"
#include "pmf/distribution_factory.hpp"
#include "policy/scenario_spec.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "workload/etc_matrix.hpp"
#include "workload/task_type_table.hpp"
#include "workload/workload_generator.hpp"

namespace ecdra::sim {

class CheckpointStore;  // sim/checkpoint.hpp

/// The environment's generating options are declared in src/policy (the
/// declarative ScenarioSpec layer); this alias keeps the historical
/// sim::SetupOptions spelling working everywhere.
using SetupOptions = policy::EnvironmentSpec;

/// Everything shared across the trials of one experiment.
struct ExperimentSetup {
  cluster::Cluster cluster;
  workload::EtcMatrix etc;
  workload::TaskTypeTable types;
  workload::WorkloadGeneratorOptions workload;
  /// t_avg: grand mean execution time (§VI; the paper's instance: ~1353).
  double t_avg = 0.0;
  /// p_avg: mean power over all machines and P-states (Eq. 8).
  double p_avg = 0.0;
  /// zeta_max.
  double energy_budget = 0.0;
  std::uint64_t master_seed = 0;
  std::size_t window_size = 0;
  /// The generating options this setup was sampled from, kept verbatim so
  /// the checkpoint fingerprint can hash the *recipe* (spec) rather than the
  /// sampled artifacts.
  SetupOptions environment;
};

/// Samples the environment from `master_seed` (substreams "cluster", "etc").
[[nodiscard]] ExperimentSetup BuildExperimentSetup(
    std::uint64_t master_seed, const SetupOptions& options = {});

/// Spec-driven overload: BuildExperimentSetup(spec.master_seed,
/// spec.environment).
[[nodiscard]] ExperimentSetup BuildExperimentSetup(
    const policy::ScenarioSpec& spec);

/// How to run the trials of one (heuristic, filter variant) configuration:
/// the result-shaping knobs (policy::RunKnobs, shared with ScenarioSpec),
/// how each trial is observed and checked (TrialMechanics, shared with
/// TrialOptions), and the sweep mechanics below. Neither of the last two
/// changes what a trial computes.
struct RunOptions : policy::RunKnobs, TrialMechanics {
  std::size_t num_trials = 50;
  /// Write one JSONL decision/energy trace covering every trial to this
  /// path (empty = no trace). The file sink is synchronized; records carry
  /// their trial index, so the parallel fan-out interleaves safely.
  std::string trace_path;
  /// Worker threads for the trial fan-out; 0 = hardware concurrency.
  std::size_t num_threads = 0;

  // -- Crash-safe sweep extensions (RunSweep; all inert by default) --
  /// Attempts per trial (>= 1). Retries re-run the *same* substreams — a
  /// retry is a true re-execution, so a deterministic failure fails every
  /// attempt while a transient one (timeout under load, injected test
  /// fault) can succeed on the next try with bit-identical results.
  std::size_t max_attempts = 1;
  /// Append each completed TrialResult to this JSONL checkpoint file
  /// ("" = off). The file starts with a header record pinning the master
  /// seed, config fingerprint, and schema version; every record is flushed
  /// as it is written, so a killed sweep loses at most the line in flight.
  std::string checkpoint_path;
  /// Previously checkpointed results (sim/checkpoint.hpp). Triples already
  /// present are served from the store instead of re-executed; because
  /// trials are deterministic per substream, the merged sweep is
  /// bit-identical to an uninterrupted one. The store's header must match
  /// this run (seed + config fingerprint) or RunSweep throws
  /// CheckpointError. Unowned; must outlive the call.
  const CheckpointStore* resume = nullptr;
  /// Test seam: invoked at the start of every attempt as
  /// (trial_index, attempt). An exception thrown here fails that attempt
  /// exactly like a trial-body exception — tests use it to inject
  /// transient and deterministic failures.
  std::function<void(std::size_t, std::size_t)> pre_trial_hook;
};

/// The RunOptions a ScenarioSpec describes: its RunKnobs slice plus
/// num_trials and validation mode. Execution mechanics (threads, traces,
/// checkpoint paths, retry policy) are not part of a spec and keep their
/// defaults. Throws policy::StreamSpecError when spec.mode cannot honor
/// spec.stream.
[[nodiscard]] RunOptions RunOptionsFromSpec(const policy::ScenarioSpec& spec);

/// A trial that exhausted every attempt without producing a result.
struct TrialFailure {
  std::string heuristic;
  std::string filter_variant;
  std::size_t trial_index = 0;
  /// what() of the last attempt's exception.
  std::string error;
  std::size_t attempts = 0;
  /// The last attempt hit the wall-clock watchdog (TrialTimeoutError).
  bool timed_out = false;
};

/// Outcome of one (heuristic, filter variant) sweep under RunSweep: the
/// completed trials plus the failures that were isolated instead of taking
/// the sweep down.
struct SweepResult {
  /// Completed trials in ascending trial-index order. When failures is
  /// empty this is exactly RunTrials' return value.
  std::vector<TrialResult> results;
  /// results[i] is the trial with index trial_indices[i] (the two vectors
  /// diverge from 0..n-1 only when trials failed).
  std::vector<std::size_t> trial_indices;
  std::vector<TrialFailure> failures;  // ascending trial index
  /// Trials served from the resume checkpoint without re-execution.
  std::size_t trials_resumed = 0;
  /// Trials that needed more than one attempt but completed.
  std::size_t trials_retried = 0;

  [[nodiscard]] bool complete() const noexcept { return failures.empty(); }
};

/// Runs one deterministic trial. `heuristic` names an immediate-mode
/// heuristic, or a batch heuristic when options.mode is RunMode::kBatch:
/// the trial then runs a batch::BatchScheduler on the same substreams,
/// TrialOptions and engine.
[[nodiscard]] TrialResult RunSingleTrial(const ExperimentSetup& setup,
                                         const std::string& heuristic,
                                         const std::string& filter_variant,
                                         std::size_t trial_index,
                                         const RunOptions& options = {});

/// Crash-safe fan-out of `options.num_trials` trials of one (heuristic,
/// filter variant) configuration: per-trial exceptions are caught at the
/// task boundary and recorded as TrialFailure outcomes (the sweep always
/// runs to the end), the wall-clock watchdog aborts runaway trials, the
/// bounded retry policy re-runs failed attempts on the same substreams, and
/// completed trials stream to the JSONL checkpoint / are served from the
/// resume store. Throws CheckpointError for checkpoint-file problems and
/// std::invalid_argument for malformed options; never throws for a failing
/// trial.
[[nodiscard]] SweepResult RunSweep(const ExperimentSetup& setup,
                                   const std::string& heuristic,
                                   const std::string& filter_variant,
                                   const RunOptions& options = {});

/// SummarizeTrials over the completed trials plus the sweep-level failure /
/// retry / timeout tallies. Zero-trial sweeps (everything failed) yield a
/// zeroed summary with the failure counts set.
[[nodiscard]] SummaryStatistics SummarizeSweep(const SweepResult& sweep);

/// Runs `options.num_trials` trials of one (heuristic, filter variant)
/// configuration in parallel; results are ordered by trial index.
/// All-or-nothing wrapper over RunSweep: if any trial failed after its
/// attempts, throws std::runtime_error naming the failing (heuristic,
/// filter, trial) triple — the remaining trials still ran to completion
/// first, so a lone bad trial cannot abandon the queued work mid-sweep.
[[nodiscard]] std::vector<TrialResult> RunTrials(
    const ExperimentSetup& setup, const std::string& heuristic,
    const std::string& filter_variant, const RunOptions& options = {});

}  // namespace ecdra::sim
