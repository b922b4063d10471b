#include "robustness/robustness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "test_support.hpp"

namespace ecdra::robustness {
namespace {

TEST(OnTimeProbability, IdleCoreIsExecCdfAtRemainingSlack) {
  const CoreQueueModel core;
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  // At now = 5, deadline 16: only the 10-unit execution (finishing at 15)
  // meets it.
  EXPECT_DOUBLE_EQ(OnTimeProbability(core, 5.0, exec, 16.0), 0.5);
  EXPECT_DOUBLE_EQ(OnTimeProbability(core, 5.0, exec, 26.0), 1.0);
  EXPECT_DOUBLE_EQ(OnTimeProbability(core, 5.0, exec, 14.0), 0.0);
}

TEST(OnTimeProbability, BusyCoreCombinesReadyAndExec) {
  const pmf::Pmf running = pmf::Pmf::Delta(10.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &running, 100.0}, 0.0);
  const pmf::Pmf exec = test::TwoPoint(5.0, 15.0);
  // Ready at 10; completion at 15 or 25.
  EXPECT_DOUBLE_EQ(OnTimeProbability(core, 0.0, exec, 20.0), 0.5);
  EXPECT_DOUBLE_EQ(OnTimeProbability(core, 0.0, exec, 25.0), 1.0);
  EXPECT_DOUBLE_EQ(OnTimeProbability(core, 0.0, exec, 14.0), 0.0);
}

TEST(OnTimeProbability, DeadlineBoundaryIsInclusive) {
  const CoreQueueModel core;
  const pmf::Pmf exec = pmf::Pmf::Delta(10.0);
  EXPECT_DOUBLE_EQ(OnTimeProbability(core, 0.0, exec, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(OnTimeProbability(core, 0.0, exec, 9.999), 0.0);
}

TEST(CoreRobustness, IdleCoreContributesZero) {
  const CoreQueueModel core;
  EXPECT_DOUBLE_EQ(CoreRobustness(core, 0.0), 0.0);
}

TEST(CoreRobustness, SumsPerTaskOnTimeProbabilities) {
  const pmf::Pmf run = test::TwoPoint(10.0, 20.0);
  const pmf::Pmf queued = pmf::Pmf::Delta(5.0);
  CoreQueueModel core;
  // Running task: deadline 15 -> P = 0.5. Queued task: completes at 15 or
  // 25; deadline 16 -> P = 0.5.
  core.StartTask(ModeledTask{0, &run, 15.0}, 0.0);
  core.Enqueue(ModeledTask{1, &queued, 16.0});
  EXPECT_DOUBLE_EQ(CoreRobustness(core, 0.0), 1.0);
}

TEST(CoreRobustness, LateRunningTaskDecaysToZeroProbability) {
  const pmf::Pmf run = test::TwoPoint(10.0, 20.0);
  CoreQueueModel core;
  core.StartTask(ModeledTask{0, &run, 15.0}, 0.0);
  // At t = 10.5, the 10-impulse is past: completion is surely at 20 > 15.
  EXPECT_DOUBLE_EQ(CoreRobustness(core, 10.5), 0.0);
  // At t = 2 the completion pmf is still {10: .5, 20: .5}.
  EXPECT_DOUBLE_EQ(CoreRobustness(core, 2.0), 0.5);
}

TEST(SystemRobustness, AddsAcrossCores) {
  const pmf::Pmf run = pmf::Pmf::Delta(10.0);
  std::vector<CoreQueueModel> cores(3);
  cores[0].StartTask(ModeledTask{0, &run, 15.0}, 0.0);  // P = 1
  cores[1].StartTask(ModeledTask{1, &run, 5.0}, 0.0);   // P = 0
  // cores[2] idle.
  EXPECT_DOUBLE_EQ(SystemRobustness(cores, 0.0), 1.0);
}

TEST(SystemRobustness, EqualsExpectedOnTimeCompletions) {
  // rho(t) is an expectation: for independent two-point tasks the sum of
  // the individual probabilities.
  const pmf::Pmf run = test::TwoPoint(8.0, 12.0);
  std::vector<CoreQueueModel> cores(2);
  cores[0].StartTask(ModeledTask{0, &run, 10.0}, 0.0);  // P = 0.5
  cores[1].StartTask(ModeledTask{1, &run, 10.0}, 0.0);  // P = 0.5
  cores[1].Enqueue(ModeledTask{2, &run, 17.0});
  // Task 2 completes at 16, 20, or 24 (probs .25, .5, .25); deadline 17.
  EXPECT_DOUBLE_EQ(SystemRobustness(cores, 0.0), 0.5 + 0.5 + 0.25);
}

TEST(OnTimeProbability, ImprovesWithEarlierReadyCore) {
  const pmf::Pmf busy_run = pmf::Pmf::Delta(30.0);
  CoreQueueModel idle_core;
  CoreQueueModel busy_core;
  busy_core.StartTask(ModeledTask{0, &busy_run, 100.0}, 0.0);
  const pmf::Pmf exec = test::TwoPoint(10.0, 20.0);
  const double p_idle = OnTimeProbability(idle_core, 0.0, exec, 25.0);
  const double p_busy = OnTimeProbability(busy_core, 0.0, exec, 25.0);
  EXPECT_GT(p_idle, p_busy);
}

// ----------------------------- RhoBelowBound --------------------------------

TEST(RhoBelowBound, CantelliDecidesBothSides) {
  // Mean 10, variance 1: a deadline 5 early leaves rho <= 1 / (1 + 25).
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, 5.0, 0.5), std::optional<bool>(true));
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, 5.0, 0.04), std::optional<bool>(true));
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, 5.0, 0.03), std::nullopt);
  // A deadline 5 late leaves 1 - rho <= 1 / 26, so rho >= 25 / 26.
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, 15.0, 0.5), std::optional<bool>(false));
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, 15.0, 0.96), std::optional<bool>(false));
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, 15.0, 0.97), std::nullopt);
  // Near the mean the bound is too weak either way.
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, 10.5, 0.5), std::nullopt);
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, 9.5, 0.5), std::nullopt);
}

TEST(RhoBelowBound, ThresholdsAtTheEndsOfTheUnitInterval) {
  // rho >= 0 always: no threshold <= 0 is ever missed, even far past the
  // mean and with no variance at all.
  EXPECT_EQ(RhoBelowBound(10.0, 0.0, 10.0, 0.0), std::optional<bool>(false));
  EXPECT_EQ(RhoBelowBound(1e6, 4.0, 0.0, 0.0), std::optional<bool>(false));
  // Theta = 1: only "below" can be decided; "rho reaches 1" never is.
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, 5.0, 1.0), std::optional<bool>(true));
  EXPECT_EQ(RhoBelowBound(10.0, 0.0, 1e3, 1.0), std::nullopt);
  // Theta = 1e-9 is inside the probability slack: "below" is never decided.
  EXPECT_EQ(RhoBelowBound(10.0, 0.0, 5.0, 1e-9), std::nullopt);
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, 15.0, 1e-9), std::optional<bool>(false));
}

TEST(RhoBelowBound, SlackScalesWithTheMagnitudeOfTheTimes) {
  // A point mass exactly on, or a rounding error away from, the deadline is
  // never decided; one clearly away from it is.
  EXPECT_EQ(RhoBelowBound(10.0, 0.0, 10.0, 0.5), std::nullopt);
  EXPECT_EQ(RhoBelowBound(10.0, 0.0, 10.0 + 1e-12, 0.5), std::nullopt);
  EXPECT_EQ(RhoBelowBound(10.0, 0.0, 10.001, 0.5), std::optional<bool>(false));
  EXPECT_EQ(RhoBelowBound(10.0, 0.0, 9.999, 0.5), std::optional<bool>(true));
  // The same 1 ms gap at 1e6 s is within the slack (1.6e-8 x 2e6 s = 32 ms).
  EXPECT_EQ(RhoBelowBound(1e6, 0.0, 1e6 + 1e-3, 0.5), std::nullopt);
  EXPECT_EQ(RhoBelowBound(1e6, 0.0, 1e6 + 1.0, 0.5),
            std::optional<bool>(false));
  // Non-finite inputs are never decided.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(RhoBelowBound(10.0, 1.0, inf, 0.5), std::nullopt);
  EXPECT_EQ(RhoBelowBound(std::nan(""), 1.0, 5.0, 0.5), std::nullopt);
}

}  // namespace
}  // namespace ecdra::robustness
