// Tests for the extended [MaA99] immediate-mode baselines: OLB, MET, KPB.
#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/kpb.hpp"
#include "core/mapping_context.hpp"
#include "test_support.hpp"
#include "workload/task_type_table.hpp"

namespace ecdra::core {
namespace {

class ExtendedHeuristicTest : public ::testing::Test {
 protected:
  ExtendedHeuristicTest()
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
  workload::Task task_{0, 0, 0.0, 1e9};
  std::deque<pmf::Pmf> exec_holder_;
};

TEST_F(ExtendedHeuristicTest, MetIgnoresQueuesEntirely) {
  // The globally fastest assignment is node 0 at P0 (EET 100) even when its
  // core is deeply backed up.
  MakeBusy(0, 10000.0, 0.0);
  const auto met = MakeHeuristic("MET", util::RngStream(1));
  MappingContext ctx = Context();
  const auto chosen = met->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->assignment.flat_core, 0u);
  EXPECT_EQ(chosen->assignment.pstate, 0u);
}

TEST_F(ExtendedHeuristicTest, OlbPicksSoonestReadyCore) {
  MakeBusy(0, 10.0, 0.0);
  MakeBusy(1, 100.0, 0.0);
  MakeBusy(2, 50.0, 0.0);
  const auto olb = MakeHeuristic("OLB", util::RngStream(1));
  MappingContext ctx = Context();
  const auto chosen = olb->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->assignment.flat_core, 0u);  // ready at 10
}

TEST_F(ExtendedHeuristicTest, OlbBreaksReadyTiesTowardLowPower) {
  // All cores idle (ready now): OLB prefers the lowest-power P-state.
  const auto olb = MakeHeuristic("OLB", util::RngStream(1));
  MappingContext ctx = Context();
  const auto chosen = olb->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->assignment.pstate, cluster::kNumPStates - 1);
}

TEST_F(ExtendedHeuristicTest, KpbWithFullPercentEqualsMect) {
  MakeBusy(0, 200.0, 0.0);
  KpbHeuristic kpb(100.0);
  const auto mect = MakeHeuristic("MECT", util::RngStream(1));
  MappingContext ctx1 = Context();
  MappingContext ctx2 = Context();
  const auto a = kpb.Select(ctx1);
  const auto b = mect->Select(ctx2);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->assignment, b->assignment);
}

TEST_F(ExtendedHeuristicTest, KpbWithTinyPercentEqualsMet) {
  MakeBusy(0, 200.0, 0.0);
  KpbHeuristic kpb(1.0);  // keeps only the single fastest assignment
  const auto met = MakeHeuristic("MET", util::RngStream(1));
  MappingContext ctx1 = Context();
  MappingContext ctx2 = Context();
  const auto a = kpb.Select(ctx1);
  const auto b = met->Select(ctx2);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->assignment, b->assignment);
}

TEST_F(ExtendedHeuristicTest, KpbAvoidsPileUpThatTrapsMet) {
  // Node 0 (fastest for this type) is backed up: MET still piles on it,
  // KPB at 40% (6 of 15 candidates: node 0 P0/P1/P2 and node 1 P0 are the
  // EET leaders) escapes to an idle node-1 core.
  MakeBusy(0, 10000.0, 0.0);
  KpbHeuristic kpb(40.0);
  MappingContext ctx = Context();
  const auto chosen = kpb.Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_NE(chosen->assignment.flat_core, 0u);
}

TEST_F(ExtendedHeuristicTest, KpbRejectsInvalidPercent) {
  EXPECT_THROW((void)KpbHeuristic(0.0), std::invalid_argument);
  EXPECT_THROW((void)KpbHeuristic(101.0), std::invalid_argument);
}

TEST_F(ExtendedHeuristicTest, FactoryKnowsExtendedNames) {
  for (const std::string& name : HeuristicRegistry().Names()) {
    auto heuristic = MakeHeuristic(name, util::RngStream(1));
    EXPECT_EQ(heuristic->name(), name);
    MappingContext ctx = Context();
    EXPECT_TRUE(heuristic->Select(ctx).has_value()) << name;
  }
  EXPECT_EQ(HeuristicRegistry().Names(),
            (std::vector<std::string>{"KPB", "LL", "MECT", "MET", "OLB",
                                      "Random", "SQ", "econ-greedy"}));
}

TEST_F(ExtendedHeuristicTest, AllExtendedHandleEmptyCandidates) {
  for (const std::string& name : HeuristicRegistry().Names()) {
    auto heuristic = MakeHeuristic(name, util::RngStream(1));
    MappingContext ctx = Context();
    ctx.candidates().clear();
    EXPECT_EQ(heuristic->Select(ctx), std::nullopt) << name;
  }
}

}  // namespace
}  // namespace ecdra::core
