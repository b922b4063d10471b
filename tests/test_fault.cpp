// Fault subsystem tests: schedule generation, injector bookkeeping, engine
// failure/throttle semantics under both recovery policies, and the two
// system-level guarantees the extension must keep — the fault-free baseline
// is bit-identical to the pre-fault engine (golden values below), and
// fault-enabled runs are deterministic regardless of thread count.
#include "fault/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "experiment/paper_config.hpp"
#include "fault/fault_injector.hpp"
#include "fault/recovery.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_runner.hpp"
#include "test_support.hpp"

namespace ecdra {
namespace {

// ---------------------------- schedule generation ----------------------------

fault::FaultModelOptions FailureOptions(double mtbf, double horizon,
                                        double repair = 0.0) {
  fault::FaultModelOptions options;
  options.mtbf = mtbf;
  options.repair_time = repair;
  options.horizon = horizon;
  return options;
}

TEST(FaultModel, DisabledOptionsYieldEmptySchedule) {
  const cluster::Cluster cluster({test::SimpleNode(1, 4)});
  fault::FaultModelOptions options;  // all zero
  EXPECT_FALSE(options.enabled());
  const fault::FaultSchedule schedule =
      fault::GenerateFaultSchedule(cluster, options, util::RngStream(1));
  EXPECT_TRUE(schedule.empty());
}

TEST(FaultModel, ScheduleIsDeterministicSortedAndBounded) {
  const cluster::Cluster cluster({test::SimpleNode(1, 4)});
  const fault::FaultModelOptions options =
      FailureOptions(50.0, 200.0, /*repair=*/25.0);
  const util::RngStream rng = util::RngStream(99).Substream("fault");
  const fault::FaultSchedule a =
      fault::GenerateFaultSchedule(cluster, options, rng);
  const fault::FaultSchedule b =
      fault::GenerateFaultSchedule(cluster, options, rng);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.events, b.events);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_GT(a.events[i].time, 0.0);
    EXPECT_LT(a.events[i].time, options.horizon);
    EXPECT_LT(a.events[i].flat_core, cluster.total_cores());
    if (i > 0) {
      EXPECT_LE(a.events[i - 1].time, a.events[i].time);
    }
  }
}

TEST(FaultModel, PerCoreFailuresAndRepairsAlternate) {
  const cluster::Cluster cluster({test::SimpleNode(1, 3)});
  const fault::FaultSchedule schedule = fault::GenerateFaultSchedule(
      cluster, FailureOptions(40.0, 500.0, /*repair=*/10.0),
      util::RngStream(7));
  std::vector<bool> dead(cluster.total_cores(), false);
  for (const fault::FaultEvent& event : schedule.events) {
    if (event.kind == fault::FaultEventKind::kCoreFailure) {
      EXPECT_FALSE(dead[event.flat_core]);
      dead[event.flat_core] = true;
    } else {
      ASSERT_EQ(event.kind, fault::FaultEventKind::kCoreRepair);
      EXPECT_TRUE(dead[event.flat_core]);
      dead[event.flat_core] = false;
    }
  }
}

TEST(FaultModel, PermanentFailuresAreOnePerCore) {
  const cluster::Cluster cluster({test::SimpleNode(1, 8)});
  // Tiny MTBF vs. the horizon: without repair every core fails exactly once.
  const fault::FaultSchedule schedule = fault::GenerateFaultSchedule(
      cluster, FailureOptions(1.0, 1e4), util::RngStream(3));
  EXPECT_EQ(schedule.events.size(), cluster.total_cores());
  for (const fault::FaultEvent& event : schedule.events) {
    EXPECT_EQ(event.kind, fault::FaultEventKind::kCoreFailure);
  }
}

TEST(FaultModel, WeibullLifetimesMatchTheRequestedMean) {
  const cluster::Cluster cluster({test::SimpleNode(1, 1)});
  fault::FaultModelOptions options = FailureOptions(100.0, 1e9);
  options.lifetime = fault::LifetimeDistribution::kWeibull;
  options.weibull_shape = 2.0;
  // First-failure times across many independent substreams estimate the mean.
  double sum = 0.0;
  const int reps = 4000;
  for (int i = 0; i < reps; ++i) {
    const fault::FaultSchedule schedule = fault::GenerateFaultSchedule(
        cluster, options, util::RngStream(1).Substream("rep", i));
    ASSERT_EQ(schedule.events.size(), 1u);
    sum += schedule.events[0].time;
  }
  EXPECT_NEAR(sum / reps, 100.0, 5.0);
}

TEST(FaultModel, ThrottleIntervalsCarryTheFloorAndAlternate) {
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  fault::FaultModelOptions options;
  options.throttle_interval = 30.0;
  options.throttle_duration = 10.0;
  options.throttle_floor = 3;
  options.horizon = 1000.0;
  const fault::FaultSchedule schedule =
      fault::GenerateFaultSchedule(cluster, options, util::RngStream(11));
  ASSERT_FALSE(schedule.empty());
  std::vector<bool> throttled(cluster.total_cores(), false);
  for (const fault::FaultEvent& event : schedule.events) {
    if (event.kind == fault::FaultEventKind::kThrottleStart) {
      EXPECT_FALSE(throttled[event.flat_core]);
      EXPECT_EQ(event.pstate_floor, 3u);
      throttled[event.flat_core] = true;
    } else {
      ASSERT_EQ(event.kind, fault::FaultEventKind::kThrottleEnd);
      EXPECT_TRUE(throttled[event.flat_core]);
      throttled[event.flat_core] = false;
    }
  }
}

// ------------------------------ fault domains --------------------------------

TEST(FaultDomains, DeriveNodeDomainsGroupsCoresByNode) {
  const cluster::Cluster cluster(
      {test::SimpleNode(1, 3), test::SimpleNode(1, 2)});
  const fault::FaultDomainLayout layout = fault::DeriveNodeDomains(cluster);
  ASSERT_EQ(layout.num_domains(), 2u);
  EXPECT_EQ(layout.names[0], "node0");
  EXPECT_EQ(layout.names[1], "node1");
  EXPECT_EQ(layout.members[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(layout.members[1], (std::vector<std::size_t>{3, 4}));
  EXPECT_EQ(layout.domain_of_core,
            (std::vector<std::size_t>{0, 0, 0, 1, 1}));
}

TEST(FaultDomains, ResolveParsesExplicitSpecCoveringEveryCore) {
  const cluster::Cluster cluster({test::SimpleNode(1, 6)});
  const fault::FaultDomainLayout layout =
      fault::ResolveFaultDomains(cluster, "rackA:0-3,rackB:4-5");
  ASSERT_EQ(layout.num_domains(), 2u);
  EXPECT_EQ(layout.names[0], "rackA");
  EXPECT_EQ(layout.members[0], (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(layout.members[1], (std::vector<std::size_t>{4, 5}));

  // The empty spec falls back to the node-per-domain default.
  const fault::FaultDomainLayout derived =
      fault::ResolveFaultDomains(cluster, "");
  EXPECT_EQ(derived.names, fault::DeriveNodeDomains(cluster).names);
}

TEST(FaultDomains, ResolveRejectsGapsOverlapsAndMalformedSpecs) {
  const cluster::Cluster cluster({test::SimpleNode(1, 4)});
  // Gap: core 3 uncovered.
  EXPECT_THROW((void)fault::ResolveFaultDomains(cluster, "a:0-2"),
               std::invalid_argument);
  // Overlap: core 2 claimed twice.
  EXPECT_THROW((void)fault::ResolveFaultDomains(cluster, "a:0-2,b:2-3"),
               std::invalid_argument);
  // Range beyond the cluster.
  EXPECT_THROW((void)fault::ResolveFaultDomains(cluster, "a:0-9"),
               std::invalid_argument);
  // Malformed entries.
  EXPECT_THROW((void)fault::ResolveFaultDomains(cluster, "nonsense"),
               std::invalid_argument);
  EXPECT_THROW((void)fault::ResolveFaultDomains(cluster, "a:3-1"),
               std::invalid_argument);
}

TEST(FaultModel, DomainOutagesAlternatePerDomainAndStayBounded) {
  const cluster::Cluster cluster(
      {test::SimpleNode(1, 2), test::SimpleNode(1, 2)});
  fault::FaultModelOptions options;
  options.domain_mtbf = 40.0;
  options.domain_repair_time = 10.0;
  options.horizon = 500.0;
  const fault::FaultDomainLayout layout = fault::DeriveNodeDomains(cluster);
  const fault::FaultSchedule schedule = fault::GenerateFaultSchedule(
      cluster, layout, options, util::RngStream(21));
  ASSERT_FALSE(schedule.empty());
  std::vector<bool> down(layout.num_domains(), false);
  for (const fault::FaultEvent& event : schedule.events) {
    ASSERT_LT(event.domain, layout.num_domains());
    EXPECT_LT(event.time, options.horizon);
    if (event.kind == fault::FaultEventKind::kDomainOutage) {
      EXPECT_FALSE(down[event.domain]);
      down[event.domain] = true;
    } else {
      ASSERT_EQ(event.kind, fault::FaultEventKind::kDomainRepair);
      EXPECT_TRUE(down[event.domain]);
      down[event.domain] = false;
    }
  }
}

TEST(FaultModel, RateZeroDomainsAreBitIdenticalToTheDomainFreeSchedule) {
  // The common-random-numbers guarantee: passing a domain layout with
  // domain_mtbf == 0 draws nothing from the "fault-domain" substreams, so
  // the per-core schedule is the same object the legacy overload generates.
  const cluster::Cluster cluster({test::SimpleNode(1, 4)});
  const fault::FaultModelOptions options =
      FailureOptions(50.0, 400.0, /*repair=*/20.0);
  const util::RngStream rng = util::RngStream(99).Substream("fault");
  const fault::FaultSchedule with_domains = fault::GenerateFaultSchedule(
      cluster, fault::DeriveNodeDomains(cluster), options, rng);
  const fault::FaultSchedule without =
      fault::GenerateFaultSchedule(cluster, options, rng);
  EXPECT_EQ(with_domains.events, without.events);
}

TEST(FaultModel, CascadeThrottleSpreadsOnsetsToDomainSiblings) {
  const cluster::Cluster cluster({test::SimpleNode(1, 3)});
  fault::FaultModelOptions options;
  options.throttle_interval = 60.0;
  options.throttle_duration = 15.0;
  options.throttle_floor = 2;
  options.cascade_throttle = true;
  options.horizon = 300.0;
  const fault::FaultDomainLayout layout = fault::DeriveNodeDomains(cluster);
  const fault::FaultSchedule schedule = fault::GenerateFaultSchedule(
      cluster, layout, options, util::RngStream(5));
  ASSERT_FALSE(schedule.empty());
  // Every onset was duplicated to the whole (3-core) domain: each throttle
  // timestamp carries one event per member core.
  std::size_t starts = 0;
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    const fault::FaultEvent& event = schedule.events[i];
    if (event.kind != fault::FaultEventKind::kThrottleStart) continue;
    ++starts;
    std::vector<std::size_t> cores_at_time;
    for (const fault::FaultEvent& other : schedule.events) {
      if (other.kind == event.kind && other.time == event.time) {
        cores_at_time.push_back(other.flat_core);
      }
    }
    EXPECT_EQ(cores_at_time.size(), 3u) << "onset at t=" << event.time;
  }
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts % 3, 0u);
}

// -------------------------------- injector ----------------------------------

TEST(FaultInjector, TracksAvailabilityFloorsAndCounts) {
  fault::FaultInjector injector(2, {});
  EXPECT_TRUE(injector.available(0));
  EXPECT_TRUE(injector.available(1));
  EXPECT_EQ(injector.pstate_floor(0), 0u);

  injector.Apply({5.0, fault::FaultEventKind::kCoreFailure, 0, 0});
  EXPECT_FALSE(injector.available(0));
  EXPECT_TRUE(injector.available(1));
  EXPECT_EQ(injector.unavailable_cores(), 1u);
  EXPECT_EQ(injector.failures_applied(), 1u);

  injector.Apply({6.0, fault::FaultEventKind::kThrottleStart, 1, 2});
  EXPECT_EQ(injector.pstate_floor(1), 2u);
  EXPECT_EQ(injector.throttles_applied(), 1u);

  injector.Apply({7.0, fault::FaultEventKind::kCoreRepair, 0, 0});
  EXPECT_TRUE(injector.available(0));
  EXPECT_EQ(injector.unavailable_cores(), 0u);
  EXPECT_EQ(injector.repairs_applied(), 1u);

  injector.Apply({8.0, fault::FaultEventKind::kThrottleEnd, 1, 0});
  EXPECT_EQ(injector.pstate_floor(1), 0u);
}

TEST(FaultInjector, RejectsEventsNamingCoresOutsideTheCluster) {
  fault::FaultSchedule schedule;
  schedule.events.push_back({1.0, fault::FaultEventKind::kCoreFailure, 9, 0});
  EXPECT_THROW((void)fault::FaultInjector(2, schedule),
               std::invalid_argument);
}

TEST(FaultInjector, DomainOutageComposesWithPerCoreFailures) {
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  fault::FaultInjector injector(2, {}, fault::DeriveNodeDomains(cluster));

  injector.Apply({5.0, fault::FaultEventKind::kDomainOutage, 0, 0, 0});
  EXPECT_FALSE(injector.available(0));
  EXPECT_FALSE(injector.available(1));
  EXPECT_TRUE(injector.domain_down(0));
  EXPECT_EQ(injector.unavailable_cores(), 2u);
  EXPECT_EQ(injector.domain_outages_applied(), 1u);

  // Core 0 also fails individually while the domain is dark.
  injector.Apply({6.0, fault::FaultEventKind::kCoreFailure, 0, 0});
  EXPECT_EQ(injector.unavailable_cores(), 2u);  // no double count

  // The domain repair revives core 1 but NOT core 0, which is still held
  // down by its own failure — availability is a count, not a bit.
  injector.Apply({7.0, fault::FaultEventKind::kDomainRepair, 0, 0, 0});
  EXPECT_FALSE(injector.available(0));
  EXPECT_TRUE(injector.available(1));
  EXPECT_FALSE(injector.domain_down(0));
  EXPECT_EQ(injector.unavailable_cores(), 1u);
  EXPECT_EQ(injector.domain_repairs_applied(), 1u);

  injector.Apply({8.0, fault::FaultEventKind::kCoreRepair, 0, 0});
  EXPECT_TRUE(injector.available(0));
  EXPECT_EQ(injector.unavailable_cores(), 0u);
}

TEST(FaultInjector, DomainFreeConstructionRejectsDomainEvents) {
  fault::FaultSchedule schedule;
  schedule.events.push_back(
      {1.0, fault::FaultEventKind::kDomainOutage, 0, 0, 0});
  EXPECT_THROW((void)fault::FaultInjector(2, schedule),
               std::invalid_argument);
}

TEST(RecoveryPolicy, NamesRoundTrip) {
  EXPECT_EQ(fault::RecoveryPolicyName(fault::RecoveryPolicy::kDropQueued),
            "drop");
  EXPECT_EQ(
      fault::RecoveryPolicyName(fault::RecoveryPolicy::kRequeueToScheduler),
      "requeue");
  EXPECT_EQ(fault::RecoveryPolicyName(fault::RecoveryPolicy::kMigrateQueued),
            "migrate");
  EXPECT_EQ(fault::ParseRecoveryPolicy("drop"),
            fault::RecoveryPolicy::kDropQueued);
  EXPECT_EQ(fault::ParseRecoveryPolicy("requeue"),
            fault::RecoveryPolicy::kRequeueToScheduler);
  EXPECT_EQ(fault::ParseRecoveryPolicy("migrate"),
            fault::RecoveryPolicy::kMigrateQueued);
  EXPECT_THROW((void)fault::ParseRecoveryPolicy("retry"),
               std::invalid_argument);
  // The error message and --list-policies share one source of truth.
  EXPECT_EQ(fault::RecoveryPolicyNames(), "drop, requeue, migrate");
  try {
    (void)fault::ParseRecoveryPolicy("retry");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("migrate"), std::string::npos)
        << error.what();
  }
}

// ----------------------------- engine semantics -----------------------------

/// Deterministic single-type delta-pmf table (same scheme as test_engine):
/// execution time on node n at state s is base * time_multiplier(s) exactly.
workload::TaskTypeTable DeltaTable(const cluster::Cluster& cluster,
                                   double base) {
  std::vector<pmf::Pmf> pmfs;
  for (std::size_t node = 0; node < cluster.num_nodes(); ++node) {
    for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
      pmfs.push_back(pmf::Pmf::Delta(
          base * cluster.node(node).pstates[s].time_multiplier));
    }
  }
  return workload::TaskTypeTable(1, cluster.num_nodes(), std::move(pmfs));
}

class FaultEngineTest : public ::testing::Test {
 protected:
  [[nodiscard]] static sim::TrialResult Run(
      const cluster::Cluster& cluster, std::vector<workload::Task> tasks,
      fault::FaultSchedule schedule, fault::RecoveryPolicy recovery,
      sim::TrialOptions options = {}) {
    workload::TaskTypeTable table = DeltaTable(cluster, 10.0);
    core::ImmediateModeScheduler scheduler(
        cluster, table, core::MakeHeuristic("SQ", util::RngStream(1)), {},
        1e9, tasks.size());
    if (options.energy_budget <= 0.0) options.energy_budget = 1e9;
    options.collect_task_records = true;
    options.fault_schedule = std::move(schedule);
    options.recovery_policy = recovery;
    sim::Engine engine(cluster, table, std::move(tasks), scheduler, options,
                       util::RngStream(7));
    return engine.Run();
  }

  [[nodiscard]] static fault::FaultSchedule Schedule(
      std::vector<fault::FaultEvent> events) {
    fault::FaultSchedule schedule;
    schedule.events = std::move(events);
    return schedule;
  }

  // SimpleNode P0 / P4 powers (efficiency 1.0), as in test_engine.
  static constexpr double kP0Power = 100.0;
  static constexpr double kP4Power = 100.0 / 2.25 * 0.4096;
};

TEST_F(FaultEngineTest, DropPolicyLosesRunningAndQueuedTasks) {
  // Single core: t0 runs [0, 10), t1 queues behind it. The core dies at 5.
  const sim::TrialResult result = Run(
      test::SingleCoreCluster(),
      {workload::Task{0, 0, 0.0, 100.0}, workload::Task{1, 0, 1.0, 100.0}},
      Schedule({{5.0, fault::FaultEventKind::kCoreFailure, 0, 0}}),
      fault::RecoveryPolicy::kDropQueued);

  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(result.missed_deadlines, 2u);
  EXPECT_EQ(result.failures_injected, 1u);
  EXPECT_EQ(result.tasks_lost_to_failures, 2u);
  EXPECT_EQ(result.tasks_remapped, 0u);
  // Nothing outlives the failure: the trial ends at the fault instant.
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
  // P0 for [0, 5), zero draw afterwards (dead core).
  EXPECT_NEAR(result.total_energy, 5.0 * kP0Power, 1e-9);
  EXPECT_TRUE(result.task_records[0].lost_to_failure);
  EXPECT_TRUE(result.task_records[1].lost_to_failure);
  EXPECT_DOUBLE_EQ(result.task_records[0].finish_time, 5.0);
}

TEST_F(FaultEngineTest, RequeueMovesStrandedTasksToSurvivingCore) {
  // Two cores: SQ puts t0 on core 0, t1 on (idle) core 1, t2 queues behind
  // t0 on core 0. Core 0 dies at 5; t0 restarts from scratch on core 1's
  // queue, t2 follows in FIFO order.
  const cluster::Cluster cluster({test::SimpleNode(1, 2)});
  const sim::TrialResult result = Run(
      cluster,
      {workload::Task{0, 0, 0.0, 100.0}, workload::Task{1, 0, 1.0, 100.0},
       workload::Task{2, 0, 2.0, 100.0}},
      Schedule({{5.0, fault::FaultEventKind::kCoreFailure, 0, 0}}),
      fault::RecoveryPolicy::kRequeueToScheduler);

  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.missed_deadlines, 0u);
  EXPECT_EQ(result.tasks_lost_to_failures, 0u);
  EXPECT_EQ(result.tasks_remapped, 2u);
  EXPECT_EQ(result.remapped_on_time, 2u);
  // Core 1: t1 [1, 11), then the restarted t0 [11, 21) — its 5 executed
  // units on core 0 are wasted — then t2 [21, 31).
  EXPECT_TRUE(result.task_records[0].remapped);
  EXPECT_TRUE(result.task_records[2].remapped);
  EXPECT_FALSE(result.task_records[1].remapped);
  EXPECT_EQ(result.task_records[0].flat_core, 1u);
  EXPECT_DOUBLE_EQ(result.task_records[0].start_time, 11.0);
  EXPECT_DOUBLE_EQ(result.task_records[2].start_time, 21.0);
  EXPECT_DOUBLE_EQ(result.makespan, 31.0);
  // Core 0: P0 [0, 5), dead after. Core 1: P4 [0, 1), P0 [1, 31).
  EXPECT_NEAR(result.total_energy,
              5.0 * kP0Power + 1.0 * kP4Power + 30.0 * kP0Power, 1e-9);
}

TEST_F(FaultEngineTest, RequeueWithNoSurvivorLosesTheTasks) {
  const sim::TrialResult result = Run(
      test::SingleCoreCluster(),
      {workload::Task{0, 0, 0.0, 100.0}, workload::Task{1, 0, 1.0, 100.0}},
      Schedule({{5.0, fault::FaultEventKind::kCoreFailure, 0, 0}}),
      fault::RecoveryPolicy::kRequeueToScheduler);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(result.tasks_lost_to_failures, 2u);
  EXPECT_EQ(result.tasks_remapped, 0u);
}

TEST_F(FaultEngineTest, ArrivalDuringOutageIsDiscardedAndRepairRestores) {
  // t0 is lost to the failure at 3; t1 arrives at 4 with the only core dead
  // (no candidates -> discarded); the core is repaired at 6 and t2 (arriving
  // at 8) completes normally.
  const sim::TrialResult result = Run(
      test::SingleCoreCluster(),
      {workload::Task{0, 0, 0.0, 100.0}, workload::Task{1, 0, 4.0, 100.0},
       workload::Task{2, 0, 8.0, 100.0}},
      Schedule({{3.0, fault::FaultEventKind::kCoreFailure, 0, 0},
                {6.0, fault::FaultEventKind::kCoreRepair, 0, 0}}),
      fault::RecoveryPolicy::kDropQueued);

  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.discarded, 1u);
  EXPECT_EQ(result.tasks_lost_to_failures, 1u);
  EXPECT_EQ(result.failures_injected, 1u);
  EXPECT_EQ(result.repairs_applied, 1u);
  EXPECT_FALSE(result.task_records[1].assigned);
  EXPECT_DOUBLE_EQ(result.task_records[2].start_time, 8.0);
  EXPECT_DOUBLE_EQ(result.makespan, 18.0);
  // P0 [0, 3), dead [3, 6), idle P4 [6, 8), P0 [8, 18).
  EXPECT_NEAR(result.total_energy,
              3.0 * kP0Power + 2.0 * kP4Power + 10.0 * kP0Power, 1e-9);
}

TEST_F(FaultEngineTest, ThrottleStretchesTheRunningTask) {
  // t0 runs at P0 from 0; a throttle with floor 2 lands at t = 4. The
  // remaining 6 units stretch by the P2/P0 multiplier ratio.
  const cluster::Cluster cluster = test::SingleCoreCluster();
  const double m2 = cluster.node(0).pstates[2].time_multiplier;
  const double p2_watts = cluster.node(0).pstates[2].power_watts;
  const sim::TrialResult result =
      Run(cluster, {workload::Task{0, 0, 0.0, 100.0}},
          Schedule({{4.0, fault::FaultEventKind::kThrottleStart, 0, 2}}),
          fault::RecoveryPolicy::kDropQueued);

  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.throttles_injected, 1u);
  EXPECT_DOUBLE_EQ(result.makespan, 4.0 + 6.0 * m2);
  EXPECT_NEAR(result.total_energy, 4.0 * kP0Power + 6.0 * m2 * p2_watts,
              1e-9);
}

TEST_F(FaultEngineTest, ThrottleEndRestoresTheAssignedPState) {
  // Throttled [4, 8): 4 units run at P0, 4 / m2 units at P2, the rest at P0
  // again. Finish = 8 + (10 - 4 - 4 / m2).
  const cluster::Cluster cluster = test::SingleCoreCluster();
  const double m2 = cluster.node(0).pstates[2].time_multiplier;
  const double p2_watts = cluster.node(0).pstates[2].power_watts;
  const sim::TrialResult result =
      Run(cluster, {workload::Task{0, 0, 0.0, 100.0}},
          Schedule({{4.0, fault::FaultEventKind::kThrottleStart, 0, 2},
                    {8.0, fault::FaultEventKind::kThrottleEnd, 0, 0}}),
          fault::RecoveryPolicy::kDropQueued);

  EXPECT_EQ(result.completed, 1u);
  const double finish = 8.0 + (10.0 - 4.0 - 4.0 / m2);
  EXPECT_NEAR(result.makespan, finish, 1e-12);
  EXPECT_NEAR(result.total_energy,
              4.0 * kP0Power + 4.0 * p2_watts + (finish - 8.0) * kP0Power,
              1e-9);
}

TEST_F(FaultEngineTest, TaskStartedUnderThrottleRunsAtTheFloor) {
  // The throttle precedes the arrival: mapping only sees P-states >= 2 and
  // execution runs at the chosen (floored) state.
  const cluster::Cluster cluster = test::SingleCoreCluster();
  const double m2 = cluster.node(0).pstates[2].time_multiplier;
  const sim::TrialResult result =
      Run(cluster, {workload::Task{0, 0, 2.0, 100.0}},
          Schedule({{1.0, fault::FaultEventKind::kThrottleStart, 0, 2}}),
          fault::RecoveryPolicy::kDropQueued);
  EXPECT_EQ(result.completed, 1u);
  ASSERT_TRUE(result.task_records[0].assigned);
  // SQ breaks queue-length ties by eet: the fastest allowed state is P2.
  EXPECT_EQ(result.task_records[0].pstate, 2u);
  EXPECT_DOUBLE_EQ(result.makespan, 2.0 + 10.0 * m2);
}

TEST_F(FaultEngineTest, MigratePolicyRestartsRunningAndMigratesQueued) {
  // Two single-core nodes (one fault domain each). SQ puts t0 on core 0,
  // t1 on (idle) core 1, t2 behind t0 on core 0. Core 0 dies at 5: the
  // *running* t0 restarts from scratch through the requeue path (remapped),
  // while the *queued* t2 migrates with its queue wait intact (migrated).
  const cluster::Cluster cluster(
      {test::SimpleNode(1, 1), test::SimpleNode(1, 1)});
  sim::TrialOptions options;
  options.fault_domains = fault::DeriveNodeDomains(cluster);
  const sim::TrialResult result = Run(
      cluster,
      {workload::Task{0, 0, 0.0, 100.0}, workload::Task{1, 0, 1.0, 100.0},
       workload::Task{2, 0, 2.0, 100.0}},
      Schedule({{5.0, fault::FaultEventKind::kCoreFailure, 0, 0}}),
      fault::RecoveryPolicy::kMigrateQueued, options);

  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.tasks_lost_to_failures, 0u);
  EXPECT_EQ(result.tasks_remapped, 1u);
  EXPECT_EQ(result.tasks_migrated, 1u);
  EXPECT_EQ(result.migrated_on_time, 1u);
  EXPECT_TRUE(result.task_records[0].remapped);
  EXPECT_FALSE(result.task_records[0].migrated);
  EXPECT_TRUE(result.task_records[2].migrated);
  EXPECT_FALSE(result.task_records[2].remapped);
  // Core 1: t1 [1, 11), restarted t0 [11, 21), migrated t2 [21, 31).
  EXPECT_DOUBLE_EQ(result.task_records[0].start_time, 11.0);
  EXPECT_DOUBLE_EQ(result.task_records[2].start_time, 21.0);
  EXPECT_DOUBLE_EQ(result.makespan, 31.0);
}

TEST_F(FaultEngineTest, MigrateWithNoSurvivorLosesTheQueuedTasks) {
  const sim::TrialResult result = Run(
      test::SingleCoreCluster(),
      {workload::Task{0, 0, 0.0, 100.0}, workload::Task{1, 0, 1.0, 100.0}},
      Schedule({{5.0, fault::FaultEventKind::kCoreFailure, 0, 0}}),
      fault::RecoveryPolicy::kMigrateQueued);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(result.tasks_lost_to_failures, 2u);
  EXPECT_EQ(result.tasks_migrated, 0u);
}

TEST_F(FaultEngineTest, DomainOutageStrandsEveryCoreOfTheDomain) {
  // One two-core node = one domain; a second single-core node survives.
  // t0 and t1 run on the first node's cores, t2 runs on the lone survivor;
  // the domain outage at 5 strands both running tasks at once.
  const cluster::Cluster cluster(
      {test::SimpleNode(1, 2), test::SimpleNode(1, 1)});
  sim::TrialOptions options;
  options.fault_domains = fault::DeriveNodeDomains(cluster);
  const sim::TrialResult result = Run(
      cluster,
      {workload::Task{0, 0, 0.0, 200.0}, workload::Task{1, 0, 1.0, 200.0},
       workload::Task{2, 0, 2.0, 200.0}},
      Schedule({{5.0, fault::FaultEventKind::kDomainOutage, 0, 0, 0}}),
      fault::RecoveryPolicy::kRequeueToScheduler, options);

  EXPECT_EQ(result.domain_outages, 1u);
  EXPECT_EQ(result.failures_injected, 0u);  // no per-core failures involved
  EXPECT_EQ(result.completed, 3u);
  EXPECT_EQ(result.tasks_remapped, 2u);
  // Both stranded tasks finished on the surviving third core.
  EXPECT_EQ(result.task_records[0].flat_core, 2u);
  EXPECT_EQ(result.task_records[1].flat_core, 2u);
}

TEST_F(FaultEngineTest, DomainRepairReturnsTheDomainToService) {
  // Outage at 3 kills the only (single-core) first domain; repair at 6
  // brings it back, and a task arriving at 8 runs on it again.
  const cluster::Cluster cluster({test::SimpleNode(1, 1)});
  sim::TrialOptions options;
  options.fault_domains = fault::DeriveNodeDomains(cluster);
  const sim::TrialResult result = Run(
      cluster,
      {workload::Task{0, 0, 0.0, 100.0}, workload::Task{1, 0, 8.0, 100.0}},
      Schedule({{3.0, fault::FaultEventKind::kDomainOutage, 0, 0, 0},
                {6.0, fault::FaultEventKind::kDomainRepair, 0, 0, 0}}),
      fault::RecoveryPolicy::kDropQueued, options);

  EXPECT_EQ(result.domain_outages, 1u);
  EXPECT_EQ(result.domain_repairs, 1u);
  EXPECT_EQ(result.tasks_lost_to_failures, 1u);
  EXPECT_EQ(result.completed, 1u);
  EXPECT_DOUBLE_EQ(result.task_records[1].start_time, 8.0);
  EXPECT_DOUBLE_EQ(result.makespan, 18.0);
}

// ------------------------- system-level guarantees --------------------------

/// Golden per-trial results captured from the pre-fault seed build (paper
/// setup, default RunOptions, en+rob): the fault-rate-0 path must reproduce
/// them bit-for-bit. Hex float literals make the comparison exact.
struct GoldenTrial {
  const char* heuristic;
  std::size_t trial;
  std::size_t missed;
  std::size_t completed;
  std::size_t discarded;
  std::size_t late;
  double total_energy;
  double makespan;
};

constexpr GoldenTrial kGolden[] = {
    {"SQ", 0, 251, 749, 1, 23, 0x1.8db3c4579b52dp+26, 0x1.fbd6d4cfc1993p+14},
    {"SQ", 1, 244, 756, 0, 18, 0x1.95fb7108f6038p+26, 0x1.07d8d6d16e689p+15},
    {"SQ", 2, 246, 754, 0, 9, 0x1.98910b831dfd3p+26, 0x1.0ab3c9cd0f907p+15},
    {"LL", 0, 231, 769, 1, 11, 0x1.7fe45e8188472p+26, 0x1.ff848d28567d5p+14},
    {"LL", 1, 234, 766, 0, 11, 0x1.88d72ad42179dp+26, 0x1.08480007805c7p+15},
    {"LL", 2, 233, 767, 0, 8, 0x1.8a78801543541p+26, 0x1.0c28783f5ee2p+15},
};

TEST(FaultBaseline, FaultRateZeroIsBitIdenticalToTheSeedBuild) {
  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  sim::RunOptions run;
  run.num_trials = 3;
  ASSERT_FALSE(run.fault.enabled());
  for (const char* heuristic : {"SQ", "LL"}) {
    const std::vector<sim::TrialResult> trials =
        sim::RunTrials(setup, heuristic, "en+rob", run);
    for (const GoldenTrial& golden : kGolden) {
      if (std::string(golden.heuristic) != heuristic) continue;
      const sim::TrialResult& trial = trials[golden.trial];
      EXPECT_EQ(trial.missed_deadlines, golden.missed) << heuristic;
      EXPECT_EQ(trial.completed, golden.completed) << heuristic;
      EXPECT_EQ(trial.discarded, golden.discarded) << heuristic;
      EXPECT_EQ(trial.finished_late, golden.late) << heuristic;
      // Bitwise equality: any hidden perturbation of the fault-free path
      // (an extra RNG draw, a reordered event, a float rounding change)
      // shows up here.
      EXPECT_EQ(trial.total_energy, golden.total_energy) << heuristic;
      EXPECT_EQ(trial.makespan, golden.makespan) << heuristic;
      EXPECT_EQ(trial.failures_injected, 0u);
      EXPECT_EQ(trial.tasks_lost_to_failures, 0u);
    }
  }
}

TEST(FaultDeterminism, ThreadCountDoesNotChangeFaultTrialResults) {
  // Runs `run` at 1 and 4 threads and requires each trial's whole result
  // record (every result-table row, plus validation) to match byte for
  // byte. Returns the serial trials.
  const auto serial_trials = [](const sim::ExperimentSetup& setup,
                                sim::RunOptions run) {
    run.num_threads = 1;
    const std::vector<sim::TrialResult> serial =
        sim::RunTrials(setup, "LL", "en+rob", run);
    run.num_threads = 4;
    const std::vector<sim::TrialResult> parallel =
        sim::RunTrials(setup, "LL", "en+rob", run);
    EXPECT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < std::min(serial.size(), parallel.size());
         ++i) {
      EXPECT_EQ(sim::TrialResultToJson(serial[i]),
                sim::TrialResultToJson(parallel[i]))
          << "trial " << i;
    }
    return serial;
  };

  sim::RunOptions run;
  run.num_trials = 4;
  run.fault.mtbf = 2e5;
  run.recovery = fault::RecoveryPolicy::kRequeueToScheduler;
  const std::vector<sim::TrialResult> trials =
      serial_trials(experiment::BuildPaperSetup(), run);
  // The sweep point is harsh enough that the guarantee is actually
  // exercised: at least one trial must inject a failure.
  EXPECT_TRUE(std::any_of(trials.begin(), trials.end(),
                          [](const sim::TrialResult& trial) {
                            return trial.failures_injected > 0;
                          }));

  // Every extension at once, with the knobs of the e2e `extensions`
  // workload: streaming with value-density admission, the budget-feedback
  // governor, domain outages with cascading throttles plus per-core faults
  // and throttles, migrate recovery, map->reduce gang jobs, and per-type
  // value.
  sim::SetupOptions environment;
  environment.cluster.num_nodes = 3;
  environment.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(15, 30, 1.0 / 8.0, 1.0 / 48.0);
  environment.workload.jobs.enabled = true;
  environment.workload.jobs.widths = {{1, 0.6}, {4, 0.4}};
  environment.workload.jobs.depths = {{1, 0.5}, {2, 0.5}};
  sim::RunOptions extensions;
  extensions.num_trials = 8;
  extensions.validation = validate::ValidationMode::kDeep;
  extensions.governor = "budget-feedback";
  extensions.mode = policy::RunMode::kStream;
  extensions.stream.energy_rate = 6000.0;
  extensions.stream.admission = "value-density";
  extensions.fault.mtbf = 1e5;
  extensions.fault.repair_time = 2000.0;
  extensions.fault.throttle_interval = 40000.0;
  extensions.fault.throttle_duration = 2000.0;
  extensions.fault.domain_mtbf = 16000.0;
  extensions.fault.domain_repair_time = 4000.0;
  extensions.fault.cascade_throttle = true;
  extensions.recovery = fault::RecoveryPolicy::kMigrateQueued;
  extensions.econ_enabled = true;
  extensions.econ.type_values = {1.0, 5.0, 20.0};
  extensions.econ.energy_price = 1e-6;
  const std::vector<sim::TrialResult> extension_trials = serial_trials(
      sim::BuildExperimentSetup(14, environment), extensions);
  ASSERT_EQ(extension_trials.size(), 8u);
  for (const sim::TrialResult& trial : extension_trials) {
    EXPECT_TRUE(trial.stream.enabled && trial.jobs.enabled &&
                trial.econ.enabled);
    EXPECT_GT(trial.failures_injected + trial.throttles_injected +
                  trial.domain_outages,
              0u);
    EXPECT_TRUE(trial.validation.ok());
  }
}

TEST(FaultDeterminism, RepeatedFaultTrialsAreIdentical) {
  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  sim::RunOptions run;
  run.fault.mtbf = 1e5;
  run.fault.throttle_interval = 5e4;
  run.fault.throttle_duration = 5e3;
  run.recovery = fault::RecoveryPolicy::kRequeueToScheduler;
  const sim::TrialResult a =
      sim::RunSingleTrial(setup, "SQ", "en+rob", 0, run);
  const sim::TrialResult b =
      sim::RunSingleTrial(setup, "SQ", "en+rob", 0, run);
  EXPECT_EQ(a.missed_deadlines, b.missed_deadlines);
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_EQ(a.throttles_injected, b.throttles_injected);
  EXPECT_EQ(a.tasks_remapped, b.tasks_remapped);
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_GT(a.failures_injected + a.throttles_injected, 0u);
}

}  // namespace
}  // namespace ecdra
