#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/mapping_context.hpp"
#include "experiment/paper_config.hpp"
#include "obs/counters.hpp"
#include "robustness/robustness.hpp"
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

TEST_F(HeuristicTest, LightestLoadStopsAtTheFirstZeroLoad) {
  // Hand-built loads [5, 1e-13, 0, 0, 0, 0]: cores 0 and 1 finish long
  // past the deadline (rho 0, load = EEC) and idle core 2 meets it surely
  // at every P-state (rho exactly 1, load 0). LL must pick what an
  // unfloored FirstMinimum picks, the first zero, without computing rho for
  // any candidate after it.
  task_.deadline = 1e6;
  MakeBusy(0, 1e7, 0.0);
  MakeBusy(1, 1e7, 0.0);
  const auto at = [](std::size_t flat, cluster::PStateIndex pstate) {
    return flat * cluster::kNumPStates + pstate;
  };
  const auto hand_built = [&](MappingContext& ctx) {
    const std::vector<Candidate> all = ctx.candidates();
    ctx.candidates() = {all[at(0, 0)], all[at(1, 0)], all[at(2, 0)],
                        all[at(2, 1)], all[at(2, 2)], all[at(2, 3)]};
    ctx.candidates()[0].eec = 5.0;
    ctx.candidates()[1].eec = 1e-13;
  };
  const auto load = [](const MappingContext& ctx, const Candidate& c) {
    return c.eec * (1.0 - ctx.OnTimeProbability(c));
  };

  MappingContext unfloored = Context();
  hand_built(unfloored);
  const std::optional<Candidate> want = FirstMinimum(
      unfloored.candidates(),
      [&](const Candidate& c) { return load(unfloored, c); });
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(load(unfloored, unfloored.candidates()[1]), 1e-13);
  for (std::size_t i = 2; i < unfloored.candidates().size(); ++i) {
    ASSERT_EQ(load(unfloored, unfloored.candidates()[i]), 0.0) << i;
  }

  MappingContext ctx = Context();
  hand_built(ctx);
  obs::Counters counters;
  const obs::CountersScope scope(&counters);
  const auto chosen = MakeHeuristic("LL", util::RngStream(1))->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->assignment, want->assignment);
  EXPECT_EQ(chosen->assignment, (Assignment{2, 0}));
  EXPECT_EQ(counters.pmf_prob_sum_leq, 3u);
}

TEST_F(HeuristicTest, IdleCoresOfANodeShareOneRhoPerPState) {
  // Cores 1 and 2 are node 1's, both idle: their ready pmf is Delta(now),
  // so one ProbSumLeq per P-state serves both, with the direct call's bits.
  MakeBusy(0, 50.0, 0.0);
  task_.deadline = 180.0;
  MappingContext ctx = Context(10.0);
  obs::Counters counters;
  const obs::CountersScope scope(&counters);
  std::vector<double> rho;
  for (const Candidate& candidate : ctx.candidates()) {
    if (candidate.node == 1) rho.push_back(ctx.OnTimeProbability(candidate));
  }
  ASSERT_EQ(rho.size(), 2u * cluster::kNumPStates);
  EXPECT_EQ(counters.pmf_prob_sum_leq, cluster::kNumPStates);
  EXPECT_EQ(counters.ready_pmf_misses + counters.ready_pmf_hits,
            cluster::kNumPStates);
  std::size_t i = 0;
  for (const Candidate& candidate : ctx.candidates()) {
    if (candidate.node != 1) continue;
    const double direct = robustness::OnTimeProbability(
        cores_[candidate.assignment.flat_core], 10.0, *candidate.exec,
        task_.deadline);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rho[i++]),
              std::bit_cast<std::uint64_t>(direct));
  }
  // Certain and hopeless P-states both occur, so the shared values differ.
  EXPECT_GT(*std::max_element(rho.begin(), rho.end()),
            *std::min_element(rho.begin(), rho.end()));
}

TEST_F(HeuristicTest, LentBuffersAreClearedAndKeepTheirStorage) {
  MakeBusy(0, 50.0, 0.0);
  MappingContext::Buffers buffers;
  const Candidate* storage = nullptr;
  for (const double now : {0.0, 10.0, 60.0}) {
    const MappingContext lent(cluster_, table_, cores_, task_, now, {},
                              &buffers);
    const MappingContext own = Context(now);
    ASSERT_EQ(lent.candidates().size(), own.candidates().size());
    if (storage != nullptr) {
      EXPECT_EQ(lent.candidates().data(), storage);
    }
    storage = lent.candidates().data();
    for (std::size_t i = 0; i < own.candidates().size(); ++i) {
      const Candidate& c = lent.candidates()[i];
      EXPECT_EQ(c.assignment, own.candidates()[i].assignment);
      EXPECT_EQ(lent.OnTimeProbability(c), own.OnTimeProbability(c));
      EXPECT_EQ(lent.ExpectedCompletionTime(c), own.ExpectedCompletionTime(c));
    }
  }
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
