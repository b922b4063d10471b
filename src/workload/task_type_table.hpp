// Execution-time pmf table: one pmf per (task type, node, P-state), built
// from a CVB ETC matrix (mean at P0 on each node) by discretizing a Gamma
// distribution with CoV V_task and scaling its support by the node's P-state
// time multipliers (§III-B, §VI).
//
// Also precomputes the deadline ingredients of §VI: each type's mean
// execution time over all machines and P-states, and the grand average
// t_avg over all types, machines, and P-states.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster.hpp"
#include "pmf/distribution_factory.hpp"
#include "pmf/pmf.hpp"
#include "util/assert.hpp"
#include "workload/etc_matrix.hpp"
#include "workload/type_bounds.hpp"

namespace ecdra::workload {

class TaskTypeTable {
 public:
  /// Builds all pmfs. `exec_cov` is the per-(type,node) execution-time CoV
  /// (paper: V_task = 0.25 drives both heterogeneity and uncertainty).
  TaskTypeTable(const cluster::Cluster& cluster, const EtcMatrix& etc,
                double exec_cov,
                const pmf::DiscretizeOptions& discretize = {});

  /// Builds a table from explicit pmfs, laid out [type][node][pstate]
  /// (pstate fastest-varying). For empirically-measured distributions (the
  /// paper allows "historical, experimental, or analytical" pmfs) and for
  /// deterministic tests.
  TaskTypeTable(std::size_t num_types, std::size_t num_nodes,
                std::vector<pmf::Pmf> pmfs);

  [[nodiscard]] std::size_t num_types() const noexcept { return num_types_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }

  /// Execution-time pmf of `type` on one core of `node` in `pstate`.
  [[nodiscard]] const pmf::Pmf& ExecPmf(std::size_t type, std::size_t node,
                                        cluster::PStateIndex pstate) const;

  /// EET(i, ., ., pi, z) — expectation of the pmf above (cached).
  [[nodiscard]] double MeanExec(std::size_t type, std::size_t node,
                                cluster::PStateIndex pstate) const;

  /// Variance of the pmf above (cached).
  [[nodiscard]] double ExecVariance(std::size_t type, std::size_t node,
                                    cluster::PStateIndex pstate) const;

  /// The kNumPStates exec pmfs of `type` on `node`, in P-state order:
  /// ExecRow(type, node) + s is &ExecPmf(type, node, s). Read in place.
  [[nodiscard]] const pmf::Pmf* ExecRow(std::size_t type,
                                        std::size_t node) const {
    return &pmfs_[Index(type, node, 0)];
  }

  /// The kNumPStates means of `type` on `node`, in P-state order:
  /// MeanRow(type, node)[s] is MeanExec(type, node, s).
  [[nodiscard]] const double* MeanRow(std::size_t type,
                                      std::size_t node) const {
    return &means_[Index(type, node, 0)];
  }

  /// The kNumPStates variances of `type` on `node`, in P-state order:
  /// VarianceRow(type, node)[s] is ExecVariance(type, node, s).
  [[nodiscard]] const double* VarianceRow(std::size_t type,
                                          std::size_t node) const {
    return &variances_[Index(type, node, 0)];
  }

  /// Mean execution time of `type` over all nodes and all P-states — the
  /// deadline's per-type term (§VI).
  [[nodiscard]] double TypeMeanOverAll(std::size_t type) const;

  /// t_avg: grand mean execution time over all types, nodes, and P-states.
  [[nodiscard]] double GrandMeanExec() const noexcept { return grand_mean_; }

 private:
  [[nodiscard]] std::size_t Index(std::size_t type, std::size_t node,
                                  cluster::PStateIndex pstate) const {
    RequireTypeInRange("task-type table", type, num_types_);
    ECDRA_REQUIRE(node < num_nodes_, "node out of range");
    ECDRA_REQUIRE(pstate < cluster::kNumPStates, "P-state out of range");
    return (type * num_nodes_ + node) * cluster::kNumPStates + pstate;
  }

  std::size_t num_types_;
  std::size_t num_nodes_;
  std::vector<pmf::Pmf> pmfs_;        // [type][node][pstate]
  std::vector<double> means_;         // parallel to pmfs_
  std::vector<double> variances_;     // parallel to pmfs_
  std::vector<double> type_means_;    // [type]
  double grand_mean_ = 0.0;
};

}  // namespace ecdra::workload
