#include "workload/workload_generator.hpp"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "workload/deadline_model.hpp"

namespace ecdra::workload {
namespace {

class WorkloadGeneratorTest : public ::testing::Test {
 protected:
  WorkloadGeneratorTest()
      : cluster_({test::SimpleNode(1, 1), test::SimpleNode(1, 2)}),
        etc_(5, 2, {100, 110, 200, 210, 300, 310, 400, 410, 500, 510}),
        table_(cluster_, etc_, 0.25) {
    options_.arrivals = ArrivalSpec::PaperBursty(20, 60, 1.0 / 8.0, 1.0 / 48.0);
  }

  cluster::Cluster cluster_;
  EtcMatrix etc_;
  TaskTypeTable table_;
  WorkloadGeneratorOptions options_;
};

TEST_F(WorkloadGeneratorTest, GeneratesSequentialIdsAndSortedArrivals) {
  util::RngStream rng(1);
  const std::vector<Task> tasks = GenerateWorkload(table_, options_, rng);
  ASSERT_EQ(tasks.size(), 100u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].id, i);
    if (i > 0) {
      EXPECT_GE(tasks[i].arrival, tasks[i - 1].arrival);
    }
  }
}

TEST_F(WorkloadGeneratorTest, TypesAreInRangeAndVaried) {
  util::RngStream rng(2);
  const std::vector<Task> tasks = GenerateWorkload(table_, options_, rng);
  std::set<std::size_t> seen;
  for (const Task& task : tasks) {
    ASSERT_LT(task.type, table_.num_types());
    seen.insert(task.type);
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST_F(WorkloadGeneratorTest, DeadlinesFollowTheSectionSixFormula) {
  util::RngStream rng(3);
  const std::vector<Task> tasks = GenerateWorkload(table_, options_, rng);
  const DeadlineModel model(table_);
  for (const Task& task : tasks) {
    EXPECT_DOUBLE_EQ(task.deadline, model.DeadlineFor(task.type, task.arrival));
    EXPECT_DOUBLE_EQ(task.deadline,
                     task.arrival + table_.TypeMeanOverAll(task.type) +
                         table_.GrandMeanExec());
  }
}

TEST_F(WorkloadGeneratorTest, DeterministicPerSeed) {
  util::RngStream a(4);
  util::RngStream b(4);
  EXPECT_EQ(GenerateWorkload(table_, options_, a),
            GenerateWorkload(table_, options_, b));
}

TEST_F(WorkloadGeneratorTest, TypesAndArrivalsUseIndependentSubstreams) {
  // Same seed, different arrival spec: the type sequence must not change,
  // because types and arrivals draw from separate named substreams.
  util::RngStream a(5);
  util::RngStream b(5);
  WorkloadGeneratorOptions alt = options_;
  alt.arrivals = ArrivalSpec::ConstantRate(100, 1.0);
  const std::vector<Task> tasks_a = GenerateWorkload(table_, options_, a);
  const std::vector<Task> tasks_b = GenerateWorkload(table_, alt, b);
  for (std::size_t i = 0; i < tasks_a.size(); ++i) {
    EXPECT_EQ(tasks_a[i].type, tasks_b[i].type);
  }
}

TEST_F(WorkloadGeneratorTest, LoadFactorScaleTightensDeadlines) {
  util::RngStream a(6);
  util::RngStream b(6);
  WorkloadGeneratorOptions tight = options_;
  tight.load_factor_scale = 0.5;
  const std::vector<Task> loose = GenerateWorkload(table_, options_, a);
  const std::vector<Task> tightened = GenerateWorkload(table_, tight, b);
  for (std::size_t i = 0; i < loose.size(); ++i) {
    EXPECT_LT(tightened[i].deadline, loose[i].deadline);
  }
}

TEST(DeadlineModel, LoadFactorIsScaledGrandMean) {
  const cluster::Cluster cluster({test::SimpleNode()});
  const EtcMatrix etc(1, 1, {100.0});
  const TaskTypeTable table(cluster, etc, 0.25);
  const DeadlineModel model(table, 2.0);
  EXPECT_DOUBLE_EQ(model.load_factor(), 2.0 * table.GrandMeanExec());
  EXPECT_THROW((void)DeadlineModel(table, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace ecdra::workload
