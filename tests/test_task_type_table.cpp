#include "workload/task_type_table.hpp"

#include <string>

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "workload/type_bounds.hpp"

namespace ecdra::workload {
namespace {

class TaskTypeTableTest : public ::testing::Test {
 protected:
  TaskTypeTableTest()
      : cluster_({test::SimpleNode(1, 1), test::SimpleNode(2, 1)}),
        etc_(2, 2, {100.0, 200.0, 300.0, 400.0}),
        table_(cluster_, etc_, 0.25) {}

  cluster::Cluster cluster_;
  EtcMatrix etc_;
  TaskTypeTable table_;
};

TEST_F(TaskTypeTableTest, BasePStateMeanMatchesEtc) {
  EXPECT_NEAR(table_.MeanExec(0, 0, 0), 100.0, 1e-9);
  EXPECT_NEAR(table_.MeanExec(0, 1, 0), 200.0, 1e-9);
  EXPECT_NEAR(table_.MeanExec(1, 0, 0), 300.0, 1e-9);
  EXPECT_NEAR(table_.MeanExec(1, 1, 0), 400.0, 1e-9);
}

TEST_F(TaskTypeTableTest, PStatesScaleByTimeMultiplier) {
  for (std::size_t type = 0; type < 2; ++type) {
    for (std::size_t node = 0; node < 2; ++node) {
      for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
        const double multiplier =
            cluster_.node(node).pstates[s].time_multiplier;
        EXPECT_NEAR(table_.MeanExec(type, node, s),
                    etc_.at(type, node) * multiplier, 1e-9);
      }
    }
  }
}

TEST_F(TaskTypeTableTest, ExecPmfMeanEqualsMeanExec) {
  for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
    EXPECT_NEAR(table_.ExecPmf(1, 0, s).Expectation(),
                table_.MeanExec(1, 0, s), 1e-9);
  }
}

TEST_F(TaskTypeTableTest, TypeMeanAveragesNodesAndPStates) {
  // Sum of multipliers for the test profile: 1/f for f in {1,.8,.64,.512,.4096}
  double multiplier_sum = 0.0;
  for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
    multiplier_sum += cluster_.node(0).pstates[s].time_multiplier;
  }
  const double expected =
      (100.0 + 200.0) * multiplier_sum / (2.0 * cluster::kNumPStates);
  EXPECT_NEAR(table_.TypeMeanOverAll(0), expected, 1e-9);
}

TEST_F(TaskTypeTableTest, GrandMeanAveragesTypes) {
  EXPECT_NEAR(table_.GrandMeanExec(),
              0.5 * (table_.TypeMeanOverAll(0) + table_.TypeMeanOverAll(1)),
              1e-9);
}

TEST_F(TaskTypeTableTest, PmfsHaveRequestedCov) {
  const pmf::Pmf& pmf = table_.ExecPmf(0, 0, 0);
  const double cov = std::sqrt(pmf.Variance()) / pmf.Expectation();
  EXPECT_NEAR(cov, 0.25, 0.05);
}

TEST_F(TaskTypeTableTest, SlowerPStateShiftsWholeSupport) {
  const pmf::Pmf& fast = table_.ExecPmf(0, 0, 0);
  const pmf::Pmf& slow = table_.ExecPmf(0, 0, 4);
  EXPECT_GT(slow.Min(), fast.Min());
  EXPECT_GT(slow.Max(), fast.Max());
}

TEST_F(TaskTypeTableTest, RejectsOutOfRange) {
  EXPECT_THROW((void)table_.ExecPmf(2, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)table_.ExecPmf(0, 2, 0), std::invalid_argument);
  EXPECT_THROW((void)table_.ExecPmf(0, 0, 5), std::invalid_argument);
  EXPECT_THROW((void)table_.TypeMeanOverAll(2), std::invalid_argument);
}

TEST_F(TaskTypeTableTest, RowsAreThePerPStateEntriesInPlace) {
  for (std::size_t type = 0; type < 2; ++type) {
    for (std::size_t node = 0; node < 2; ++node) {
      for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
        EXPECT_EQ(table_.ExecRow(type, node) + s,
                  &table_.ExecPmf(type, node, s));
        EXPECT_EQ(table_.MeanRow(type, node)[s],
                  table_.MeanExec(type, node, s));
      }
    }
  }
  EXPECT_THROW((void)table_.ExecRow(2, 0), std::invalid_argument);
  EXPECT_THROW((void)table_.ExecRow(0, 2), std::invalid_argument);
  EXPECT_THROW((void)table_.MeanRow(2, 0), std::invalid_argument);
  EXPECT_THROW((void)table_.MeanRow(0, 2), std::invalid_argument);
}

TEST_F(TaskTypeTableTest, VarianceRowsAreTheCachedExecVariances) {
  for (std::size_t type = 0; type < 2; ++type) {
    for (std::size_t node = 0; node < 2; ++node) {
      for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
        EXPECT_EQ(table_.VarianceRow(type, node)[s],
                  table_.ExecVariance(type, node, s));
        EXPECT_EQ(table_.ExecVariance(type, node, s),
                  table_.ExecPmf(type, node, s).Variance());
        EXPECT_GT(table_.ExecVariance(type, node, s), 0.0);
      }
    }
  }
  EXPECT_THROW((void)table_.VarianceRow(2, 0), std::invalid_argument);
  EXPECT_THROW((void)table_.VarianceRow(0, 2), std::invalid_argument);
  EXPECT_THROW((void)table_.ExecVariance(0, 0, cluster::kNumPStates),
               std::invalid_argument);

  // The explicit-pmf constructor caches them too; a delta has none.
  std::vector<pmf::Pmf> pmfs;
  for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
    pmfs.push_back(s == 0 ? pmf::Pmf::Delta(3.0) : test::TwoPoint(1.0, 5.0));
  }
  const TaskTypeTable explicit_table(1, 1, std::move(pmfs));
  EXPECT_EQ(explicit_table.ExecVariance(0, 0, 0), 0.0);
  EXPECT_EQ(explicit_table.VarianceRow(0, 0)[1], 4.0);
}

TEST_F(TaskTypeTableTest, OutOfRangeTypeNamesTheOffenderInTheDiagnostic) {
  try {
    (void)table_.ExecPmf(9, 0, 0);
    FAIL() << "expected TaskTypeRangeError";
  } catch (const TaskTypeRangeError& error) {
    EXPECT_EQ(error.type(), 9u);
    EXPECT_EQ(error.num_types(), 2u);
    const std::string what = error.what();
    EXPECT_NE(what.find("task-type table"), std::string::npos) << what;
    EXPECT_NE(what.find("task type 9"), std::string::npos) << what;
    EXPECT_NE(what.find("2 types"), std::string::npos) << what;
  }
}

TEST(TaskTypeTable, RejectsMismatchedEtc) {
  const cluster::Cluster cluster({test::SimpleNode()});
  const EtcMatrix etc(1, 2, {1.0, 2.0});  // 2 machines vs 1 node
  EXPECT_THROW((void)TaskTypeTable(cluster, etc, 0.25),
               std::invalid_argument);
}

TEST(TaskTypeTable, RejectsNonPositiveCov) {
  const cluster::Cluster cluster({test::SimpleNode()});
  const EtcMatrix etc(1, 1, {1.0});
  EXPECT_THROW((void)TaskTypeTable(cluster, etc, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace ecdra::workload
