#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "core/energy_filter.hpp"
#include "core/factory.hpp"
#include "core/mapping_context.hpp"
#include "core/robustness_filter.hpp"
#include "obs/counters.hpp"
#include "robustness/robustness.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "validate/validation.hpp"
#include "workload/task_type_table.hpp"

namespace ecdra::core {
namespace {

class FilterTest : public ::testing::Test {
 protected:
  FilterTest()
      : cluster_({test::SimpleNode(1, 1, 1.0), test::SimpleNode(2, 1, 0.5)}),
        etc_(1, 2, {100.0, 150.0}),
        table_(cluster_, etc_, 0.25),
        cores_(cluster_.total_cores()) {}

  [[nodiscard]] MappingContext Context(double remaining_energy,
                                       std::size_t tasks_left,
                                       double now = 0.0) {
    MappingContext ctx(cluster_, table_, cores_, task_, now);
    ctx.SetBudgetView(remaining_energy, tasks_left);
    return ctx;
  }

  cluster::Cluster cluster_;
  workload::EtcMatrix etc_;
  workload::TaskTypeTable table_;
  std::vector<robustness::CoreQueueModel> cores_;
  workload::Task task_{0, 0, 0.0, 400.0};
};

TEST_F(FilterTest, EnergyFilterMultiplierBands) {
  const EnergyFilter filter;
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(0.0), 0.8);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(0.79), 0.8);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(0.8), 1.0);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(1.0), 1.0);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(1.2), 1.0);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(1.21), 1.2);
  EXPECT_DOUBLE_EQ(filter.MultiplierFor(5.0), 1.2);
}

TEST_F(FilterTest, EnergyFilterKeepsOnlyFairShareCandidates) {
  EnergyFilter filter;
  // Idle system: zeta_mul = 0.8; fair share = 0.8 * remaining / tasks_left.
  const double remaining = 1e5;
  const std::size_t tasks_left = 10;
  const double fair = 0.8 * remaining / 10.0;
  MappingContext ctx = Context(remaining, tasks_left);
  const std::vector<Candidate> before = ctx.candidates();
  filter.Apply(ctx);
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_LE(candidate.eec, fair);
  }
  // Every removed candidate must genuinely exceed the fair share.
  std::size_t over = 0;
  for (const Candidate& candidate : before) {
    if (candidate.eec > fair) ++over;
  }
  EXPECT_EQ(before.size() - ctx.candidates().size(), over);
  EXPECT_FALSE(ctx.candidates().empty());
}

TEST_F(FilterTest, EnergyFilterEliminatesEverythingWhenBudgetGone) {
  EnergyFilter filter;
  MappingContext ctx = Context(0.0, 10);
  filter.Apply(ctx);
  EXPECT_TRUE(ctx.candidates().empty());
  MappingContext negative = Context(-5000.0, 10);
  filter.Apply(negative);
  EXPECT_TRUE(negative.candidates().empty());
}

TEST_F(FilterTest, EnergyFilterLoosensDuringCongestion) {
  // Same budget: a congested system (zeta_mul = 1.2) admits candidates an
  // idle system (zeta_mul = 0.8) rejects.
  const double remaining = 1e5;
  MappingContext idle_ctx = Context(remaining, 10);
  EnergyFilter filter;
  filter.Apply(idle_ctx);
  const std::size_t idle_count = idle_ctx.candidates().size();

  // Congest: 2 tasks in flight per core.
  std::deque<pmf::Pmf> execs;
  for (auto& core : cores_) {
    execs.push_back(pmf::Pmf::Delta(500.0));
    core.StartTask(robustness::ModeledTask{99, &execs.back(), 1e9}, 0.0);
    execs.push_back(pmf::Pmf::Delta(500.0));
    core.Enqueue(robustness::ModeledTask{100, &execs.back(), 1e9});
  }
  MappingContext busy_ctx = Context(remaining, 10);
  EXPECT_DOUBLE_EQ(busy_ctx.AverageQueueDepth(), 2.0);
  filter.Apply(busy_ctx);
  EXPECT_GE(busy_ctx.candidates().size(), idle_count);
}

TEST_F(FilterTest, RobustnessFilterDropsBelowThreshold) {
  RobustnessFilter filter(0.5);
  task_.deadline = 130.0;  // tight: slow P-states become hopeless
  MappingContext ctx = Context(1e12, 10);
  const std::size_t before = ctx.candidates().size();
  filter.Apply(ctx);
  EXPECT_LT(ctx.candidates().size(), before);
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_GE(ctx.OnTimeProbability(candidate), 0.5);
  }
}

TEST_F(FilterTest, RobustnessFilterKeepsEverythingWhenDeadlineLoose) {
  RobustnessFilter filter(0.5);
  task_.deadline = 1e6;
  MappingContext ctx = Context(1e12, 10);
  const std::size_t before = ctx.candidates().size();
  filter.Apply(ctx);
  EXPECT_EQ(ctx.candidates().size(), before);
}

TEST_F(FilterTest, RobustnessFilterAtThresholdOneDropsUncertain) {
  RobustnessFilter filter(1.0);
  task_.deadline = 130.0;
  MappingContext ctx = Context(1e12, 10);
  filter.Apply(ctx);
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_DOUBLE_EQ(ctx.OnTimeProbability(candidate), 1.0);
  }
}

TEST_F(FilterTest, RobustnessFilterRejectsInvalidThreshold) {
  EXPECT_THROW((void)RobustnessFilter(-0.1), std::invalid_argument);
  EXPECT_THROW((void)RobustnessFilter(1.1), std::invalid_argument);
}

TEST_F(FilterTest, FactoryBuildsTheFourVariants) {
  EXPECT_TRUE(MakeFilterChain("none").empty());
  const auto en = MakeFilterChain("en");
  ASSERT_EQ(en.size(), 1u);
  EXPECT_EQ(en[0]->name(), "en");
  const auto rob = MakeFilterChain("rob");
  ASSERT_EQ(rob.size(), 1u);
  EXPECT_EQ(rob[0]->name(), "rob");
  const auto both = MakeFilterChain("en+rob");
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0]->name(), "en");
  EXPECT_EQ(both[1]->name(), "rob");
  EXPECT_THROW((void)MakeFilterChain("bogus"), std::invalid_argument);
}

TEST_F(FilterTest, FiltersComposeToIntersection) {
  task_.deadline = 300.0;
  MappingContext both_ctx = Context(1e5, 10);
  for (const auto& filter : MakeFilterChain("en+rob")) {
    filter->Apply(both_ctx);
  }
  MappingContext en_ctx = Context(1e5, 10);
  MakeFilterChain("en")[0]->Apply(en_ctx);
  MappingContext rob_ctx = Context(1e5, 10);
  MakeFilterChain("rob")[0]->Apply(rob_ctx);

  // Every candidate surviving both filters survives each individually.
  for (const Candidate& candidate : both_ctx.candidates()) {
    const auto matches = [&candidate](const Candidate& other) {
      return other.assignment == candidate.assignment;
    };
    EXPECT_TRUE(std::any_of(en_ctx.candidates().begin(),
                            en_ctx.candidates().end(), matches));
    EXPECT_TRUE(std::any_of(rob_ctx.candidates().begin(),
                            rob_ctx.candidates().end(), matches));
  }
}

TEST_F(FilterTest, CustomFilterChainOptionsPropagate) {
  FilterChainOptions options;
  options.robustness_threshold = 0.95;
  task_.deadline = 140.0;
  const auto chain = MakeFilterChain("rob", options);
  MappingContext ctx = Context(1e12, 10);
  chain[0]->Apply(ctx);
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_GE(ctx.OnTimeProbability(candidate), 0.95);
  }
}

TEST_F(FilterTest, RhoIsComputedOncePerCandidate) {
  // A busy core, so rho goes through a truncated and convolved ready pmf.
  const pmf::Pmf running = test::TwoPoint(40.0, 90.0);
  const pmf::Pmf queued = test::TwoPoint(20.0, 30.0);
  cores_[0].StartTask(robustness::ModeledTask{98, &running, 1e9}, 0.0);
  cores_[0].Enqueue(robustness::ModeledTask{99, &queued, 1e9});
  task_.deadline = 300.0;
  MappingContext ctx = Context(1e5, 10, 10.0);
  const auto chain = MakeFilterChain("en+rob");
  chain[0]->Apply(ctx);
  const std::size_t en_survivors = ctx.candidates().size();
  ASSERT_GT(en_survivors, 0u);

  // rob asks about every en survivor; LL and the trace record re-read rho
  // for candidates rob already scored.
  obs::Counters counters;
  {
    const obs::CountersScope scope(&counters);
    chain[1]->Apply(ctx);
    const std::optional<Candidate> chosen =
        MakeHeuristic("LL", util::RngStream(1))->Select(ctx);
    ASSERT_TRUE(chosen.has_value());
    (void)ctx.OnTimeProbability(*chosen);
  }
  EXPECT_LT(ctx.candidates().size(), en_survivors);
  // rob keeps one survivor on the mean/variance bound alone and computes
  // rho for the other two; LL then computes rho for the kept one, once.
  EXPECT_EQ(counters.rho_bound_kept, 1u);
  EXPECT_EQ(counters.rho_bound_pruned, 0u);
  EXPECT_EQ(counters.pmf_prob_sum_leq, en_survivors);
}

// --------------------------- RhoBelow property -------------------------------

/// Exec pmfs for the property below, laid out [type][node][P-state]: type 0
/// deltas, type 1 two-point pmfs, type 2 random supports of 1-24 impulses.
workload::TaskTypeTable PropertyTable(util::RngStream& rng,
                                      std::size_t num_nodes) {
  std::vector<pmf::Pmf> pmfs;
  for (std::size_t type = 0; type < 3; ++type) {
    for (std::size_t node = 0; node < num_nodes; ++node) {
      for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
        const double scale = 1.0 + 0.25 * s;
        if (type == 0) {
          pmfs.push_back(pmf::Pmf::Delta(rng.UniformReal(5.0, 40.0) * scale));
        } else if (type == 1) {
          pmfs.push_back(test::TwoPoint(rng.UniformReal(2.0, 10.0) * scale,
                                        rng.UniformReal(10.0, 60.0) * scale));
        } else {
          std::vector<pmf::Impulse> impulses;
          const auto n = rng.UniformInt(1, 24);
          for (std::int64_t j = 0; j < n; ++j) {
            impulses.push_back({rng.UniformReal(1.0, 50.0) * scale,
                                rng.UniformReal(0.01, 1.0)});
          }
          pmfs.push_back(pmf::Pmf::FromImpulses(std::move(impulses)));
        }
      }
    }
  }
  return workload::TaskTypeTable(3, num_nodes, std::move(pmfs));
}

class RhoBelowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RhoBelowProperty, DecidedAnswersMatchTheExactComparison) {
  // Random queues of 0-40 tasks on four cores, queried at times that sit on
  // a running impulse, past the running task's last one (the Delta(now)
  // fallback) or in between; deadlines near the completion mean, far from
  // it, or exactly on a sum of a ready and an exec impulse. Every RhoBelow
  // answer must equal OnTimeProbability < theta; the bound must decide a
  // share of them and leave a share to the exact path. A deep validator
  // runs the "rho-bound" audit on every decided answer and the pmf audits
  // on every pmf the queues build, and must report no violation at all.
  util::RngStream rng(GetParam());
  const cluster::Cluster cluster(
      {test::SimpleNode(1, 2, 1.0), test::SimpleNode(2, 1, 0.9)});
  const workload::TaskTypeTable table = PropertyTable(rng, 2);
  std::vector<robustness::CoreQueueModel> cores(cluster.total_cores());
  obs::Counters counters;
  const obs::CountersScope counters_scope(&counters);
  validate::TrialValidator validator(validate::ValidationMode::kDeep);
  const validate::ValidatorScope validator_scope(&validator);

  const auto random_exec = [&](std::size_t flat) {
    return &table.ExecPmf(
        static_cast<std::size_t>(rng.UniformInt(0, 2)),
        cluster.NodeIndexOf(flat),
        static_cast<cluster::PStateIndex>(rng.UniformInt(0, 4)));
  };
  constexpr double kThetas[] = {0.0, 1e-9, 0.3, 0.5, 0.9, 1.0};
  std::uint64_t decided[std::size(kThetas)] = {};
  std::uint64_t exact[std::size(kThetas)] = {};
  bool saw_idle = false;
  bool saw_fallback = false;
  bool saw_on_impulse = false;
  std::size_t longest_queue = 0;
  double now = 0.0;
  std::size_t next_id = 0;
  for (int step = 0; step < 600; ++step) {
    const std::size_t flat = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(cores.size()) - 1));
    robustness::CoreQueueModel& core = cores[flat];
    const double op = rng.UniformReal(0.0, 1.0);
    if (op < 0.005) {
      core.Reset();
    } else if (core.idle()) {
      if (op < 0.9) {
        core.StartTask(robustness::ModeledTask{next_id++, random_exec(flat)},
                       now);
      }
    } else if (op < 0.7) {
      if (core.queued().size() < 40) {
        core.Enqueue(robustness::ModeledTask{next_id++, random_exec(flat)});
      }
    } else if (op < 0.9) {
      core.FinishRunning();
      if (!core.queued().empty() && op < 0.75) core.DropNext();
      if (!core.queued().empty()) core.StartNext(now);
    }
    longest_queue = std::max(longest_queue, core.queued().size());

    // Query time: unchanged, forward, on a running impulse, or past it.
    const double pick = rng.UniformReal(0.0, 1.0);
    if (pick < 0.3) {
      now += rng.UniformReal(0.0, 5.0);
    } else if (pick < 0.6 && !core.idle()) {
      const pmf::Pmf& exec = *core.running()->exec;
      const double at =
          core.running_start() +
          exec.impulses()[static_cast<std::size_t>(rng.UniformInt(
                              0, static_cast<std::int64_t>(exec.size()) - 1))]
              .value;
      now = std::max(now, at);
    } else if (pick < 0.7 && !core.idle()) {
      now = std::max(now, core.running_start() + core.running()->exec->Max() +
                              rng.UniformReal(0.0, 2.0));
    }
    for (const robustness::CoreQueueModel& model : cores) {
      saw_idle |= model.idle();
      saw_fallback |= !model.idle() &&
                      model.running_start() + model.running()->exec->Max() <
                          now;
    }

    // Deadline: around the mean of one candidate's completion, far from
    // it, or exactly on an impulse sum of its ready and exec pmfs.
    workload::Task task{next_id, static_cast<std::size_t>(rng.UniformInt(0, 2)),
                        now, 0.0};
    const cluster::PStateIndex pstate =
        static_cast<cluster::PStateIndex>(rng.UniformInt(0, 4));
    const pmf::Pmf& exec =
        table.ExecPmf(task.type, cluster.NodeIndexOf(flat), pstate);
    const pmf::Pmf& ready = core.ReadyPmf(now);
    const double shape = rng.UniformReal(0.0, 1.0);
    if (shape < 0.3) {
      const auto any = [&](const pmf::Pmf& p) {
        return p.impulses()[static_cast<std::size_t>(
                                rng.UniformInt(0, static_cast<std::int64_t>(
                                                      p.size()) -
                                                      1))]
            .value;
      };
      task.deadline = any(ready) + any(exec);
      saw_on_impulse = true;
    } else {
      const double spread =
          std::sqrt(ready.Variance() + exec.Variance()) + 1.0;
      const double z = shape < 0.8 ? rng.UniformReal(-4.0, 4.0)
                                   : rng.UniformReal(-40.0, 40.0);
      task.deadline = ready.Expectation() + exec.Expectation() + z * spread;
    }

    for (std::size_t t = 0; t < std::size(kThetas); ++t) {
      const MappingContext ctx(cluster, table, cores, task, now);
      for (const Candidate& candidate : ctx.candidates()) {
        const std::uint64_t before =
            counters.rho_bound_pruned + counters.rho_bound_kept;
        const bool below = ctx.RhoBelow(candidate, kThetas[t]);
        const bool by_bound =
            counters.rho_bound_pruned + counters.rho_bound_kept > before;
        const double rho = robustness::OnTimeProbability(
            cores[candidate.assignment.flat_core], now, *candidate.exec,
            task.deadline);
        ASSERT_EQ(below, rho < kThetas[t])
            << "step " << step << " theta " << kThetas[t] << " core "
            << candidate.assignment.flat_core << " P"
            << int(candidate.assignment.pstate) << " rho " << rho
            << (by_bound ? " (decided by the bound)" : " (exact)");
        ++(by_bound ? decided : exact)[t];
      }
    }
  }
  EXPECT_TRUE(saw_idle);
  EXPECT_TRUE(saw_fallback);
  EXPECT_TRUE(saw_on_impulse);
  EXPECT_EQ(longest_queue, 40u);
  EXPECT_EQ(exact[0], 0u);  // rho >= 0 answers theta = 0 outright
  for (std::size_t t = 0; t < std::size(kThetas); ++t) {
    EXPECT_GT(decided[t], 0u) << "theta " << kThetas[t];
    if (t > 0) {
      EXPECT_GT(exact[t], 0u) << "theta " << kThetas[t];
    }
  }
  EXPECT_GT(counters.rho_bound_pruned, 0u);
  EXPECT_GT(counters.rho_bound_kept, 0u);
  EXPECT_TRUE(validator.report().ok()) << validator.report();
  EXPECT_GT(validator.report().checks_run, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RhoBelowProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace ecdra::core
