#include <set>

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/mapping_context.hpp"
#include "experiment/paper_config.hpp"
#include "test_support.hpp"
#include "workload/task_type_table.hpp"

namespace ecdra::core {
namespace {

// Fixture: a 3-core cluster (node 0: one core; node 1: two cores) with
// hand-picked ETC means so every scalar is predictable.
class HeuristicTest : public ::testing::Test {
 protected:
  HeuristicTest()
      : cluster_({test::SimpleNode(1, 1, 1.0), test::SimpleNode(2, 1, 0.5)}),
        etc_(1, 2, {100.0, 150.0}),
        table_(cluster_, etc_, 0.25),
        cores_(cluster_.total_cores()) {}

  [[nodiscard]] MappingContext Context(double now = 0.0) {
    return MappingContext(cluster_, table_, cores_, task_, now);
  }

  void MakeBusy(std::size_t flat_core, double exec_duration, double start) {
    exec_holder_.push_back(pmf::Pmf::Delta(exec_duration));
    cores_[flat_core].StartTask(
        robustness::ModeledTask{999, &exec_holder_.back(), 1e9}, start);
  }

  cluster::Cluster cluster_;
  workload::EtcMatrix etc_;
  workload::TaskTypeTable table_;
  std::vector<robustness::CoreQueueModel> cores_;
  workload::Task task_{0, 0, 0.0, 400.0};
  std::deque<pmf::Pmf> exec_holder_;
};

TEST_F(HeuristicTest, ContextEnumeratesAllCoreAndPStatePairs) {
  MappingContext ctx = Context();
  EXPECT_EQ(ctx.candidates().size(), 3u * cluster::kNumPStates);
}

TEST_F(HeuristicTest, ContextComputesEetAndEec) {
  MappingContext ctx = Context();
  for (const Candidate& candidate : ctx.candidates()) {
    const double base = candidate.node == 0 ? 100.0 : 150.0;
    const double multiplier = cluster_.node(candidate.node)
                                  .pstates[candidate.assignment.pstate]
                                  .time_multiplier;
    EXPECT_NEAR(candidate.eet, base * multiplier, 1e-9);
    const double power = cluster_.node(candidate.node)
                             .pstates[candidate.assignment.pstate]
                             .power_watts;
    const double eff = cluster_.node(candidate.node).power_efficiency;
    EXPECT_NEAR(candidate.eec, candidate.eet * power / eff, 1e-9);
  }
}

TEST_F(HeuristicTest, ShortestQueuePrefersEmptyCore) {
  MakeBusy(0, 50.0, 0.0);
  MakeBusy(1, 50.0, 0.0);
  const auto sq = MakeHeuristic("SQ", util::RngStream(1));
  MappingContext ctx = Context();
  const auto chosen = sq->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->assignment.flat_core, 2u);
}

TEST_F(HeuristicTest, ShortestQueueBreaksTiesByEet) {
  // All cores empty: minimum EET overall is node 0 (mean 100) at P0.
  const auto sq = MakeHeuristic("SQ", util::RngStream(1));
  MappingContext ctx = Context();
  const auto chosen = sq->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->assignment.flat_core, 0u);
  EXPECT_EQ(chosen->assignment.pstate, 0u);
}

TEST_F(HeuristicTest, ShortestQueueCountsWholeQueue) {
  MakeBusy(0, 50.0, 0.0);
  exec_holder_.push_back(pmf::Pmf::Delta(5.0));
  cores_[0].Enqueue(robustness::ModeledTask{1000, &exec_holder_.back(), 1e9});
  MakeBusy(1, 50.0, 0.0);
  MakeBusy(2, 50.0, 0.0);
  // Core 0 has 2 assigned; cores 1-2 have 1; min-EET among cores 1-2 is the
  // candidate with smaller EET: both on node 1 (mean 150) -> first found.
  const auto sq = MakeHeuristic("SQ", util::RngStream(1));
  MappingContext ctx = Context();
  const auto chosen = sq->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_NE(chosen->assignment.flat_core, 0u);
  EXPECT_EQ(chosen->assignment.pstate, 0u);
}

TEST_F(HeuristicTest, MectPicksMinimumExpectedCompletion) {
  // Core 0 busy until t = 200; cores 1-2 idle. Node 1 P0 EET = 150 beats
  // waiting for node 0 (200 + 100).
  MakeBusy(0, 200.0, 0.0);
  const auto mect = MakeHeuristic("MECT", util::RngStream(1));
  MappingContext ctx = Context();
  const auto chosen = mect->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_NE(chosen->assignment.flat_core, 0u);
  EXPECT_EQ(chosen->assignment.pstate, 0u);  // P0 always fastest
}

TEST_F(HeuristicTest, MectAlwaysChoosesP0WithoutFilters) {
  // §VII: MECT automatically chooses the highest P-state, whatever the load.
  const auto mect = MakeHeuristic("MECT", util::RngStream(1));
  MappingContext idle_ctx = Context();
  ASSERT_TRUE(mect->Select(idle_ctx).has_value());
  EXPECT_EQ(mect->Select(idle_ctx)->assignment.pstate, 0u);

  MakeBusy(0, 30.0, 0.0);
  MakeBusy(1, 120.0, 0.0);
  MakeBusy(2, 120.0, 0.0);
  MappingContext busy_ctx = Context();
  const auto chosen = mect->Select(busy_ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->assignment.pstate, 0u);
}

TEST_F(HeuristicTest, MectPrefersShortQueueOverFastNode) {
  // Node 0's core queued deep; the expected completion on an idle node-1
  // core wins even though node 0 is faster per task.
  MakeBusy(0, 500.0, 0.0);
  const auto mect = MakeHeuristic("MECT", util::RngStream(1));
  MappingContext ctx = Context();
  const auto chosen = mect->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(cluster_.NodeIndexOf(chosen->assignment.flat_core), 1u);
}

TEST_F(HeuristicTest, LightestLoadMinimizesEecTimesInverseRobustness) {
  const auto ll = MakeHeuristic("LL", util::RngStream(1));
  MappingContext ctx = Context();
  const auto chosen = ll->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  // Verify the chosen candidate's load is the global minimum.
  const double chosen_load =
      chosen->eec * (1.0 - ctx.OnTimeProbability(*chosen));
  for (const Candidate& candidate : ctx.candidates()) {
    const double load =
        candidate.eec * (1.0 - ctx.OnTimeProbability(candidate));
    EXPECT_GE(load + 1e-12, chosen_load);
  }
}

TEST_F(HeuristicTest, LightestLoadPrefersCheapCertaintyOverExpensive) {
  // With a generous deadline every assignment is certain (rho ~ 1), so LL
  // load collapses to ~0 everywhere... with rho exactly 1 load is 0; the
  // first such candidate wins. With a tight deadline, low P-states lose
  // their certainty and LL moves away from the slowest states.
  task_.deadline = 130.0;  // only fast assignments certain
  const auto ll = MakeHeuristic("LL", util::RngStream(1));
  MappingContext ctx = Context();
  const auto chosen = ll->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  const double rho = ctx.OnTimeProbability(*chosen);
  EXPECT_GT(rho, 0.5);
}

TEST_F(HeuristicTest, RandomChoosesWithinCandidatesUniformly) {
  const auto random = MakeHeuristic("Random", util::RngStream(42));
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (int i = 0; i < 600; ++i) {
    MappingContext ctx = Context();
    const auto chosen = random->Select(ctx);
    ASSERT_TRUE(chosen.has_value());
    seen.insert({chosen->assignment.flat_core, chosen->assignment.pstate});
  }
  // 15 possible assignments; after 600 uniform draws all should appear.
  EXPECT_EQ(seen.size(), 15u);
}

TEST_F(HeuristicTest, AllHeuristicsReturnNulloptOnEmptyCandidates) {
  for (const std::string& name :
       experiment::PaperScenario().grid.heuristics) {
    auto heuristic = MakeHeuristic(name, util::RngStream(1));
    MappingContext ctx = Context();
    ctx.candidates().clear();
    EXPECT_EQ(heuristic->Select(ctx), std::nullopt) << name;
  }
}

TEST_F(HeuristicTest, FactoryNamesMatchHeuristics) {
  EXPECT_EQ(MakeHeuristic("SQ", util::RngStream(1))->name(), "SQ");
  EXPECT_EQ(MakeHeuristic("MECT", util::RngStream(1))->name(), "MECT");
  EXPECT_EQ(MakeHeuristic("LL", util::RngStream(1))->name(), "LL");
  EXPECT_EQ(MakeHeuristic("Random", util::RngStream(1))->name(), "Random");
  EXPECT_THROW((void)MakeHeuristic("BOGUS", util::RngStream(1)),
               std::invalid_argument);
}

TEST_F(HeuristicTest, DeterministicHeuristicsAreRepeatable) {
  MakeBusy(1, 75.0, 0.0);
  for (const std::string name : {"SQ", "MECT", "LL"}) {
    auto h1 = MakeHeuristic(name, util::RngStream(1));
    auto h2 = MakeHeuristic(name, util::RngStream(2));  // rng ignored
    MappingContext ctx1 = Context();
    MappingContext ctx2 = Context();
    const auto a = h1->Select(ctx1);
    const auto b = h2->Select(ctx2);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->assignment, b->assignment) << name;
  }
}

TEST_F(HeuristicTest, AverageQueueDepthCountsInFlight) {
  MappingContext empty_ctx = Context();
  EXPECT_DOUBLE_EQ(empty_ctx.AverageQueueDepth(), 0.0);
  MakeBusy(0, 10.0, 0.0);
  MakeBusy(1, 10.0, 0.0);
  exec_holder_.push_back(pmf::Pmf::Delta(5.0));
  cores_[0].Enqueue(robustness::ModeledTask{7, &exec_holder_.back(), 1e9});
  MappingContext ctx = Context();
  EXPECT_DOUBLE_EQ(ctx.AverageQueueDepth(), 1.0);  // 3 in flight / 3 cores
}

}  // namespace
}  // namespace ecdra::core
