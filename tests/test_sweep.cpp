// Crash-safe sweep runner: per-trial failure isolation, bounded retry on
// the same substreams, the wall-clock watchdog, RunTrials' exception
// transparency (a failing trial is named, never silently abandoned), and
// the same guarantees for batch-mode sweeps.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "sim/checkpoint.hpp"
#include "sim/experiment_runner.hpp"

namespace ecdra::sim {
namespace {

SetupOptions SmallOptions() {
  SetupOptions options;
  options.cluster.num_nodes = 3;
  options.cvb.num_task_types = 10;
  options.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(15, 30, 1.0 / 8.0, 1.0 / 48.0);
  return options;
}

TEST(RunSweep, IsolatesAThrowingTrialAndFinishesTheRest) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.num_trials = 5;
  options.num_threads = 2;
  options.pre_trial_hook = [](std::size_t trial, std::size_t) {
    if (trial == 2) throw std::runtime_error("injected trial bug");
  };

  const SweepResult sweep = RunSweep(setup, "SQ", "en+rob", options);
  EXPECT_FALSE(sweep.complete());
  ASSERT_EQ(sweep.failures.size(), 1u);
  const TrialFailure& failure = sweep.failures[0];
  EXPECT_EQ(failure.heuristic, "SQ");
  EXPECT_EQ(failure.filter_variant, "en+rob");
  EXPECT_EQ(failure.trial_index, 2u);
  EXPECT_EQ(failure.attempts, 1u);
  EXPECT_FALSE(failure.timed_out);
  EXPECT_NE(failure.error.find("injected trial bug"), std::string::npos);

  // The other four trials completed, correctly indexed.
  ASSERT_EQ(sweep.results.size(), 4u);
  EXPECT_EQ(sweep.trial_indices,
            (std::vector<std::size_t>{0, 1, 3, 4}));

  const SummaryStatistics summary = SummarizeSweep(sweep);
  EXPECT_EQ(summary.trials, 4u);
  EXPECT_EQ(summary.failed_trials, 1u);
  EXPECT_EQ(summary.timed_out_trials, 0u);
}

TEST(RunSweep, RetrySucceedsOnTransientFailureWithIdenticalResults) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());

  RunOptions baseline;
  baseline.num_trials = 3;
  const SweepResult reference = RunSweep(setup, "SQ", "en+rob", baseline);
  ASSERT_TRUE(reference.complete());

  // Trial 1 fails on its first attempt only (a transient fault); the retry
  // re-runs the same substreams and must reproduce the reference bits.
  std::atomic<int> failures_injected{0};
  RunOptions options;
  options.num_trials = 3;
  options.max_attempts = 2;
  options.pre_trial_hook = [&](std::size_t trial, std::size_t attempt) {
    if (trial == 1 && attempt == 1) {
      ++failures_injected;
      throw std::runtime_error("transient");
    }
  };
  const SweepResult sweep = RunSweep(setup, "SQ", "en+rob", options);
  EXPECT_EQ(failures_injected.load(), 1);
  ASSERT_TRUE(sweep.complete());
  EXPECT_EQ(sweep.trials_retried, 1u);
  ASSERT_EQ(sweep.results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sweep.results[i].missed_deadlines,
              reference.results[i].missed_deadlines);
    EXPECT_EQ(sweep.results[i].total_energy,
              reference.results[i].total_energy);
    EXPECT_EQ(sweep.results[i].makespan, reference.results[i].makespan);
  }
  EXPECT_EQ(SummarizeSweep(sweep).retried_trials, 1u);
}

TEST(RunSweep, DeterministicFailureExhaustsAllAttempts) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  std::atomic<int> attempts_seen{0};
  RunOptions options;
  options.num_trials = 1;
  options.max_attempts = 3;
  options.pre_trial_hook = [&](std::size_t, std::size_t) {
    ++attempts_seen;
    throw std::logic_error("deterministic bug");
  };
  const SweepResult sweep = RunSweep(setup, "SQ", "en+rob", options);
  EXPECT_EQ(attempts_seen.load(), 3);
  ASSERT_EQ(sweep.failures.size(), 1u);
  EXPECT_EQ(sweep.failures[0].attempts, 3u);
  EXPECT_TRUE(sweep.results.empty());
  // Zero-survivor sweeps still summarize (zeroed means, failure counts set).
  const SummaryStatistics summary = SummarizeSweep(sweep);
  EXPECT_EQ(summary.trials, 0u);
  EXPECT_EQ(summary.failed_trials, 1u);
}

TEST(RunSweep, WatchdogTimesOutARunawayTrial) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.num_trials = 1;
  // A deadline no real trial can meet: the engine's event loop checks the
  // wall clock every 64 events and aborts with TrialTimeoutError.
  options.trial_timeout = 1e-9;
  const SweepResult sweep = RunSweep(setup, "SQ", "en+rob", options);
  ASSERT_EQ(sweep.failures.size(), 1u);
  EXPECT_TRUE(sweep.failures[0].timed_out);
  EXPECT_NE(sweep.failures[0].error.find("watchdog"), std::string::npos);
  EXPECT_EQ(SummarizeSweep(sweep).timed_out_trials, 1u);
}

TEST(RunSweep, WatchdogOffByDefaultAndHarmlessWhenGenerous) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.num_trials = 2;
  options.trial_timeout = 3600.0;  // generous: must never fire
  const SweepResult sweep = RunSweep(setup, "SQ", "en+rob", options);
  EXPECT_TRUE(sweep.complete());

  RunOptions plain;
  plain.num_trials = 2;
  const SweepResult reference = RunSweep(setup, "SQ", "en+rob", plain);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sweep.results[i].total_energy,
              reference.results[i].total_energy);
  }
}

TEST(RunTrials, ThrowsNamingTheFailingTripleAfterFinishingTheSweep) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  std::atomic<int> trials_started{0};
  RunOptions options;
  options.num_trials = 4;
  options.num_threads = 2;
  options.pre_trial_hook = [&](std::size_t trial, std::size_t) {
    ++trials_started;
    if (trial == 1) throw std::runtime_error("injected trial bug");
  };
  try {
    (void)RunTrials(setup, "MECT", "rob", options);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    // The failing triple is named in full...
    EXPECT_NE(what.find("MECT"), std::string::npos) << what;
    EXPECT_NE(what.find("rob"), std::string::npos) << what;
    EXPECT_NE(what.find("trial=1"), std::string::npos) << what;
    EXPECT_NE(what.find("injected trial bug"), std::string::npos) << what;
  }
  // ...and no queued trial was abandoned: all four ran.
  EXPECT_EQ(trials_started.load(), 4);
}

TEST(RunSweep, RejectsZeroAttempts) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.max_attempts = 0;
  EXPECT_THROW((void)RunSweep(setup, "SQ", "en+rob", options),
               std::invalid_argument);
}

// -- Batch mode: RunMode::kBatch runs batch trials through the same sweep --

RunOptions BatchSweep(std::size_t num_trials) {
  RunOptions options;
  options.mode = policy::RunMode::kBatch;
  options.num_trials = num_trials;
  options.num_threads = 2;
  return options;
}

TEST(RunSweep, BatchModeIsolatesAThrowingTrial) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const SweepResult reference =
      RunSweep(setup, "MinMinCT", "en+rob", BatchSweep(4));
  ASSERT_TRUE(reference.complete());

  RunOptions options = BatchSweep(4);
  options.pre_trial_hook = [](std::size_t trial, std::size_t) {
    if (trial == 1) throw std::runtime_error("injected batch bug");
  };
  const SweepResult sweep = RunSweep(setup, "MinMinCT", "en+rob", options);
  ASSERT_EQ(sweep.failures.size(), 1u);
  EXPECT_EQ(sweep.failures[0].heuristic, "MinMinCT");
  EXPECT_EQ(sweep.failures[0].trial_index, 1u);
  EXPECT_NE(sweep.failures[0].error.find("injected batch bug"),
            std::string::npos);
  ASSERT_EQ(sweep.trial_indices, (std::vector<std::size_t>{0, 2, 3}));
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    EXPECT_EQ(TrialResultToJson(sweep.results[i]),
              TrialResultToJson(reference.results[sweep.trial_indices[i]]))
        << "trial " << sweep.trial_indices[i];
  }
}

TEST(RunSweep, BatchModeResumesBitIdentical) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const std::string path = testing::TempDir() + "ecdra_sweep_batch.jsonl";
  std::remove(path.c_str());

  const SweepResult reference =
      RunSweep(setup, "Sufferage", "en+rob", BatchSweep(5));
  ASSERT_TRUE(reference.complete());

  // "Crashed" run: only the first 2 trials reach the checkpoint.
  RunOptions partial = BatchSweep(2);
  partial.checkpoint_path = path;
  ASSERT_TRUE(RunSweep(setup, "Sufferage", "en+rob", partial).complete());

  const CheckpointStore store = CheckpointStore::Load(path);
  RunOptions resumed_options = BatchSweep(5);
  resumed_options.resume = &store;
  const SweepResult resumed =
      RunSweep(setup, "Sufferage", "en+rob", resumed_options);
  std::remove(path.c_str());
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.trials_resumed, 2u);
  ASSERT_EQ(resumed.results.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(TrialResultToJson(resumed.results[i]),
              TrialResultToJson(reference.results[i]))
        << "trial " << i;
  }
}

TEST(RunSweep, BatchAndImmediateSweepsHaveDifferentFingerprints) {
  // run.mode is fingerprinted, so a store one mode wrote never resumes a
  // sweep of the other.
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const RunOptions batch = BatchSweep(4);
  RunOptions immediate = batch;
  immediate.mode = policy::RunMode::kFixedTrace;
  EXPECT_NE(ConfigFingerprint(setup, batch),
            ConfigFingerprint(setup, immediate));
}

}  // namespace
}  // namespace ecdra::sim
