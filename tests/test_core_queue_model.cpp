#include "robustness/core_queue_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/counters.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ecdra::robustness {
namespace {

TEST(CoreQueueModel, EmptyCoreIsReadyNow) {
  const CoreQueueModel core;
  EXPECT_TRUE(core.idle());
  EXPECT_EQ(core.queue_length(), 0u);
  const pmf::Pmf& ready = core.ReadyPmf(12.5);
  EXPECT_EQ(ready.size(), 1u);
  EXPECT_DOUBLE_EQ(ready.Expectation(), 12.5);
  EXPECT_DOUBLE_EQ(core.ExpectedReadyTime(12.5), 12.5);
}

TEST(CoreQueueModel, RunningTaskShiftsByStartTime) {
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 100.0}, 5.0);
  EXPECT_FALSE(core.idle());
  EXPECT_EQ(core.queue_length(), 1u);
  // Queried right at the start: completion at 15 or 25, each 0.5.
  const pmf::Pmf& ready = core.ReadyPmf(5.0);
  EXPECT_DOUBLE_EQ(ready.Expectation(), 20.0);
  EXPECT_DOUBLE_EQ(ready.Min(), 15.0);
  EXPECT_DOUBLE_EQ(ready.Max(), 25.0);
}

TEST(CoreQueueModel, QueryLaterTruncatesAndRenormalizes) {
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 100.0}, 0.0);
  // At t = 15.0001 the 10-second impulse is in the past; all mass on 20.
  const pmf::Pmf& ready = core.ReadyPmf(15.0001);
  EXPECT_EQ(ready.size(), 1u);
  EXPECT_DOUBLE_EQ(ready.Expectation(), 20.0);
}

TEST(CoreQueueModel, AllMassPastMeansImminent) {
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 100.0}, 0.0);
  const pmf::Pmf& ready = core.ReadyPmf(30.0);
  EXPECT_EQ(ready.size(), 1u);
  EXPECT_DOUBLE_EQ(ready.Expectation(), 30.0);
}

TEST(CoreQueueModel, QueuedTasksConvolveIntoReady) {
  const pmf::Pmf exec_a = pmf::Pmf::Delta(10.0);
  const pmf::Pmf exec_b = test::TwoPoint(5.0, 7.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec_a, 100.0}, 0.0);
  core.Enqueue(ModeledTask{1, &exec_b, 100.0});
  EXPECT_EQ(core.queue_length(), 2u);
  const pmf::Pmf& ready = core.ReadyPmf(0.0);
  EXPECT_DOUBLE_EQ(ready.Expectation(), 16.0);
  EXPECT_DOUBLE_EQ(ready.Min(), 15.0);
  EXPECT_DOUBLE_EQ(ready.Max(), 17.0);
}

TEST(CoreQueueModel, ExpectedReadyTimeMatchesReadyPmfExpectation) {
  const pmf::Pmf exec_a = test::TwoPoint(10.0, 30.0);
  const pmf::Pmf exec_b = test::TwoPoint(5.0, 9.0);
  const pmf::Pmf exec_c = pmf::Pmf::Delta(4.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec_a, 100.0}, 2.0);
  core.Enqueue(ModeledTask{1, &exec_b, 100.0});
  core.Enqueue(ModeledTask{2, &exec_c, 100.0});
  for (const double now : {2.0, 11.0, 13.0, 31.9}) {
    EXPECT_NEAR(core.ExpectedReadyTime(now),
                core.ReadyPmf(now).Expectation(), 1e-9)
        << "now=" << now;
  }
}

TEST(CoreQueueModel, StartNextPromotesFifoOrder) {
  const pmf::Pmf exec = pmf::Pmf::Delta(10.0);
  const pmf::Pmf exec_b = pmf::Pmf::Delta(20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 50.0}, 0.0);
  core.Enqueue(ModeledTask{1, &exec_b, 60.0});
  core.Enqueue(ModeledTask{2, &exec, 70.0});
  core.FinishRunning();
  core.StartNext(10.0);
  ASSERT_TRUE(core.running().has_value());
  EXPECT_EQ(core.running()->task_id, 1u);
  EXPECT_EQ(core.queue_length(), 2u);
  // Ready now reflects task 1 running from t=10 plus queued task 2.
  EXPECT_DOUBLE_EQ(core.ReadyPmf(10.0).Expectation(), 40.0);
}

TEST(CoreQueueModel, FinishLastTaskEmptiesCore) {
  const pmf::Pmf exec = pmf::Pmf::Delta(10.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 50.0}, 0.0);
  core.FinishRunning();
  EXPECT_TRUE(core.idle());
  EXPECT_EQ(core.queue_length(), 0u);
  EXPECT_DOUBLE_EQ(core.ReadyPmf(10.0).Expectation(), 10.0);
}

TEST(CoreQueueModel, CacheInvalidatesOnMutation) {
  const pmf::Pmf exec = pmf::Pmf::Delta(10.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 50.0}, 0.0);
  EXPECT_DOUBLE_EQ(core.ReadyPmf(0.0).Expectation(), 10.0);
  core.Enqueue(ModeledTask{1, &exec, 60.0});
  // Same query time, changed state: the memo must not serve stale data.
  EXPECT_DOUBLE_EQ(core.ReadyPmf(0.0).Expectation(), 20.0);
}

TEST(CoreQueueModel, CacheServesRepeatQueriesAtSameTime) {
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec, 50.0}, 0.0);
  const pmf::Pmf& first = core.ReadyPmf(1.0);
  const pmf::Pmf& second = core.ReadyPmf(1.0);
  EXPECT_EQ(&first, &second);  // same memoized object
}

TEST(CoreQueueModel, SuffixRebuildAfterDequeueIsCorrect) {
  const pmf::Pmf exec_a = pmf::Pmf::Delta(10.0);
  const pmf::Pmf exec_b = test::TwoPoint(2.0, 4.0);
  const pmf::Pmf exec_c = test::TwoPoint(1.0, 3.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &exec_a, 0.0}, 0.0);
  core.Enqueue(ModeledTask{1, &exec_b, 0.0});
  core.Enqueue(ModeledTask{2, &exec_c, 0.0});
  core.FinishRunning();
  core.StartNext(10.0);  // b runs from 10, c queued
  const pmf::Pmf& ready = core.ReadyPmf(10.0);
  // b completes at 12 or 14; plus c's 1 or 3: support {13, 15, 17} weighted.
  EXPECT_DOUBLE_EQ(ready.Expectation(), 15.0);
  EXPECT_DOUBLE_EQ(ready.Min(), 13.0);
  EXPECT_DOUBLE_EQ(ready.Max(), 17.0);
}

TEST(CoreQueueModel, MisuseThrows) {
  const pmf::Pmf exec = pmf::Pmf::Delta(10.0);
  CoreQueueModel core;
  EXPECT_THROW(core.Enqueue(ModeledTask{0, &exec, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(core.FinishRunning(), std::invalid_argument);
  EXPECT_THROW(core.StartNext(0.0), std::invalid_argument);
  core.StartTask(ModeledTask{0, &exec, 0.0}, 0.0);
  EXPECT_THROW(core.StartTask(ModeledTask{1, &exec, 0.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(core.StartTask(ModeledTask{1, nullptr, 0.0}, 0.0),
               std::invalid_argument);
}

class RandomizedQueueModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedQueueModel, ExpectationShortcutAlwaysMatches) {
  // Property: under random enqueue/finish sequences, the scalar
  // ExpectedReadyTime always equals the full ReadyPmf expectation.
  util::RngStream rng(GetParam());
  std::vector<pmf::Pmf> execs;
  for (int i = 0; i < 8; ++i) {
    execs.push_back(test::TwoPoint(rng.UniformReal(1.0, 10.0),
                                   rng.UniformReal(10.0, 30.0)));
  }
  CoreQueueModel core;
  double now = 0.0;
  std::size_t next_id = 0;
  for (int step = 0; step < 60; ++step) {
    now += rng.UniformReal(0.0, 5.0);
    const bool arrive = rng.UniformReal(0, 1) < 0.6 || core.idle();
    if (arrive) {
      const pmf::Pmf* exec =
          &execs[static_cast<std::size_t>(rng.UniformInt(0, 7))];
      if (core.idle()) {
        core.StartTask(ModeledTask{next_id++, exec, now + 50.0}, now);
      } else {
        core.Enqueue(ModeledTask{next_id++, exec, now + 50.0});
      }
    } else {
      core.FinishRunning();
      if (core.queue_length() > 0) core.StartNext(now);
    }
    EXPECT_NEAR(core.ExpectedReadyTime(now), core.ReadyPmf(now).Expectation(),
                1e-6 * (1.0 + now));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedQueueModel,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------- memo bit-identity --------------------------------

/// The running task's exec pmf shifted by its start time.
pmf::Pmf ShiftedRunning(const CoreQueueModel& core) {
  pmf::Pmf shifted = *core.running()->exec;
  shifted.ShiftInPlace(core.running_start());
  return shifted;
}

/// §IV-B rebuilt from scratch on every call: copy, shift, truncate, then
/// convolve with the queued suffix folded front to back.
pmf::Pmf ReferenceReadyPmf(const CoreQueueModel& core, double now) {
  if (core.idle()) return pmf::Pmf::Delta(now);
  pmf::Pmf truncated = ShiftedRunning(core);
  truncated.TruncateBelowInPlace(now);
  if (core.queued().empty()) return truncated;
  pmf::Pmf suffix = *core.queued().front().exec;
  for (std::size_t i = 1; i < core.queued().size(); ++i) {
    pmf::ConvolveInto(suffix, *core.queued()[i].exec,
                      pmf::Pmf::kDefaultMaxImpulses, suffix);
  }
  pmf::Pmf ready;
  pmf::ConvolveInto(truncated, suffix, pmf::Pmf::kDefaultMaxImpulses, ready);
  return ready;
}

/// Sum of queued exec means, accumulated the way the model does: a fresh
/// front-to-back sum whenever the head is popped, += on every Enqueue.
double FreshMeanSum(const CoreQueueModel& core) {
  double sum = 0.0;
  for (const ModeledTask& task : core.queued()) sum += task.exec->Expectation();
  return sum;
}

/// The scalar formula: truncated running expectation + queued mean sum.
double ReferenceExpectedReadyTime(const CoreQueueModel& core, double now,
                                  double queued_mean_sum) {
  if (core.idle()) return now;
  pmf::Pmf truncated = ShiftedRunning(core);
  truncated.TruncateBelowInPlace(now);
  return truncated.Expectation() + queued_mean_sum;
}

/// Next query time, never earlier than `now`: inside an impulse gap, exactly
/// on an impulse value, unchanged, or past the running task's last impulse.
double NextQueryTime(util::RngStream& rng, const CoreQueueModel& core,
                     double now) {
  const double pick = rng.UniformReal(0.0, 1.0);
  if (core.idle() || pick < 0.2) return now + rng.UniformReal(0.0, 3.0);
  if (pick < 0.35) return now;
  const pmf::Pmf shifted = ShiftedRunning(core);
  if (pick < 0.5) return std::max(now, shifted.Max() + rng.UniformReal(0, 5));
  std::vector<double> ahead;
  for (const pmf::Impulse& imp : shifted.impulses()) {
    if (imp.value >= now) ahead.push_back(imp.value);
  }
  if (ahead.empty()) return now + rng.UniformReal(0.0, 3.0);
  const std::size_t k = static_cast<std::size_t>(rng.UniformInt(
      0, static_cast<std::int64_t>(std::min<std::size_t>(ahead.size(), 3)) -
             1));
  if (pick < 0.75 || k + 1 == ahead.size()) return ahead[k];
  return 0.5 * (ahead[k] + ahead[k + 1]);
}

class MemoBitIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoBitIdentity, ReadyPmfAndExpectationMatchFromScratch) {
  util::RngStream rng(GetParam());
  std::vector<pmf::Pmf> execs;
  for (int i = 0; i < 5; ++i) {
    std::vector<pmf::Impulse> impulses;
    const auto n = rng.UniformInt(1, 12);
    for (std::int64_t j = 0; j < n; ++j) {
      impulses.push_back({rng.UniformReal(1.0, 40.0), rng.UniformReal(0.1, 1)});
    }
    execs.push_back(pmf::Pmf::FromImpulses(std::move(impulses)));
  }
  // Two values closer than an ulp at the trial's start times, so shifting
  // coalesces them.
  execs.push_back(pmf::Pmf::FromImpulses(
      {{2.0, 0.3}, {2.0 + 1e-14, 0.3}, {9.0, 0.4}}));
  // A tail too light to renormalize: truncating inside (10, 30] takes the
  // Delta(now) fallback while impulses remain past now.
  execs.push_back(pmf::Pmf::FromImpulses({{10.0, 1.0}, {30.0, 1e-12}}));
  {
    pmf::Pmf shifted = execs[5];
    shifted.ShiftInPlace(1000.0);
    ASSERT_LT(shifted.size(), execs[5].size());
  }

  obs::Counters counters;
  const obs::CountersScope scope(&counters);
  CoreQueueModel core;
  double mean_sum = 0.0;
  double now = 1000.0;
  std::size_t next_id = 0;
  const auto random_exec = [&] {
    return &execs[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(execs.size()) - 1))];
  };
  for (int step = 0; step < 300; ++step) {
    const double op = rng.UniformReal(0.0, 1.0);
    if (op < 0.04) {
      core.Reset();
      mean_sum = 0.0;
    } else if (core.idle()) {
      core.StartTask(ModeledTask{next_id++, random_exec(), 0.0}, now);
    } else if (op < 0.55) {
      const pmf::Pmf* exec = random_exec();
      core.Enqueue(ModeledTask{next_id++, exec, 0.0});
      mean_sum += exec->Expectation();
    } else if (op < 0.8) {
      core.FinishRunning();
      while (!core.queued().empty() && rng.UniformReal(0.0, 1.0) < 0.3) {
        core.DropNext();
        mean_sum = FreshMeanSum(core);
      }
      if (!core.queued().empty()) {
        core.StartNext(now);
        mean_sum = FreshMeanSum(core);
      }
    }
    const auto queries = rng.UniformInt(1, 3);
    for (std::int64_t q = 0; q < queries; ++q) {
      now = NextQueryTime(rng, core, now);
      const bool scalar_first = rng.UniformReal(0.0, 1.0) < 0.5;
      if (scalar_first) {
        EXPECT_EQ(core.ExpectedReadyTime(now),
                  ReferenceExpectedReadyTime(core, now, mean_sum))
            << "step " << step << " now " << now;
      }
      EXPECT_EQ(core.ReadyPmf(now), ReferenceReadyPmf(core, now))
          << "step " << step << " now " << now;
      EXPECT_EQ(core.ExpectedReadyTime(now),
                ReferenceExpectedReadyTime(core, now, mean_sum))
          << "step " << step << " now " << now;
    }
  }
  EXPECT_GT(counters.ready_pmf_hits, 0u);
  EXPECT_GT(counters.ready_pmf_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoBitIdentity,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------- memo edge cases -------------------------------

class ReadyMemo : public ::testing::Test {
 protected:
  ReadyMemo() : scope_(&counters_) {}

  obs::Counters counters_;
  obs::CountersScope scope_;
  const pmf::Pmf exec_ = test::TwoPoint(10.0, 20.0);
  const pmf::Pmf queued_exec_ = test::TwoPoint(1.0, 3.0);
  CoreQueueModel core_;
};

TEST_F(ReadyMemo, LaterQueryInsideTheSameGapIsAHit) {
  core_.StartTask(ModeledTask{0, &exec_, 0.0}, 0.0);
  core_.Enqueue(ModeledTask{1, &queued_exec_, 0.0});
  const pmf::Pmf& first = core_.ReadyPmf(1.0);
  // 10.0 itself is not below the query time, so the cut is unchanged.
  for (const double now : {5.0, 9.5, 10.0}) {
    const pmf::Pmf& later = core_.ReadyPmf(now);
    EXPECT_EQ(&later, &first);
    EXPECT_EQ(later, ReferenceReadyPmf(core_, now));
  }
  EXPECT_EQ(counters_.ready_pmf_misses, 1u);
  EXPECT_EQ(counters_.ready_pmf_hits, 3u);
}

TEST_F(ReadyMemo, CrossingAnImpulseIsAMiss) {
  core_.StartTask(ModeledTask{0, &exec_, 0.0}, 0.0);
  EXPECT_EQ(core_.ReadyPmf(5.0).size(), 2u);
  const pmf::Pmf& crossed = core_.ReadyPmf(10.5);
  EXPECT_EQ(crossed, pmf::Pmf::Delta(20.0));
  EXPECT_EQ(counters_.ready_pmf_misses, 2u);
  EXPECT_EQ(counters_.ready_pmf_hits, 0u);
}

TEST_F(ReadyMemo, OverrunCoreNeverServesAStaleDelta) {
  core_.StartTask(ModeledTask{0, &exec_, 0.0}, 0.0);
  for (const double now : {25.0, 30.0, 31.5}) {
    EXPECT_EQ(core_.ReadyPmf(now), pmf::Pmf::Delta(now)) << now;
    EXPECT_EQ(core_.ExpectedReadyTime(now), now) << now;
  }
  EXPECT_EQ(counters_.ready_pmf_misses, 3u);
  (void)core_.ReadyPmf(31.5);
  EXPECT_EQ(counters_.ready_pmf_hits, 1u);

  // Same guard behind a queue: Delta(now) convolved with the suffix.
  core_.Enqueue(ModeledTask{1, &queued_exec_, 0.0});
  for (const double now : {40.0, 41.0}) {
    EXPECT_EQ(core_.ReadyPmf(now), ReferenceReadyPmf(core_, now)) << now;
    EXPECT_DOUBLE_EQ(core_.ReadyPmf(now).Min(), now + 1.0) << now;
  }
}

TEST_F(ReadyMemo, LightTailFallbackStaysKeyedOnNow) {
  // Inside (10, 30] the cut does not move, but the surviving 1e-12 mass is
  // too little to renormalize, so each query is Delta(now).
  const pmf::Pmf light_tail =
      pmf::Pmf::FromImpulses({{10.0, 1.0}, {30.0, 1e-12}});
  core_.StartTask(ModeledTask{0, &light_tail, 0.0}, 0.0);
  for (const double now : {12.0, 15.0, 30.0}) {
    EXPECT_EQ(core_.ReadyPmf(now), pmf::Pmf::Delta(now)) << now;
    EXPECT_EQ(core_.ExpectedReadyTime(now), now) << now;
  }
  EXPECT_EQ(counters_.ready_pmf_misses, 3u);
}

TEST_F(ReadyMemo, IdleCoreStaysKeyedOnNow) {
  EXPECT_EQ(core_.ReadyPmf(5.0), pmf::Pmf::Delta(5.0));
  EXPECT_EQ(core_.ReadyPmf(6.0), pmf::Pmf::Delta(6.0));
  EXPECT_EQ(counters_.ready_pmf_misses, 2u);
  EXPECT_EQ(core_.ReadyPmf(6.0), pmf::Pmf::Delta(6.0));
  EXPECT_EQ(counters_.ready_pmf_hits, 1u);
}

TEST_F(ReadyMemo, MutationInvalidatesWithinTheSameCut) {
  core_.StartTask(ModeledTask{0, &exec_, 0.0}, 0.0);
  (void)core_.ReadyPmf(1.0);
  core_.Enqueue(ModeledTask{1, &queued_exec_, 0.0});
  EXPECT_EQ(core_.ReadyPmf(2.0), ReferenceReadyPmf(core_, 2.0));
  core_.FinishRunning();
  core_.StartNext(2.0);
  EXPECT_EQ(core_.ReadyPmf(2.0), ReferenceReadyPmf(core_, 2.0));
  EXPECT_EQ(counters_.ready_pmf_misses, 3u);
  EXPECT_EQ(counters_.ready_pmf_hits, 0u);
}

}  // namespace
}  // namespace ecdra::robustness
