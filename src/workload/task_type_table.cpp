#include "workload/task_type_table.hpp"

#include "util/assert.hpp"
#include "workload/type_bounds.hpp"

namespace ecdra::workload {

TaskTypeTable::TaskTypeTable(const cluster::Cluster& cluster,
                             const EtcMatrix& etc, double exec_cov,
                             const pmf::DiscretizeOptions& discretize)
    : num_types_(etc.num_types()), num_nodes_(cluster.num_nodes()) {
  ECDRA_REQUIRE(etc.num_machines() == cluster.num_nodes(),
                "ETC matrix machine count must equal cluster node count");
  ECDRA_REQUIRE(exec_cov > 0.0, "execution-time CoV must be positive");

  pmfs_.reserve(num_types_ * num_nodes_ * cluster::kNumPStates);
  means_.reserve(pmfs_.capacity());
  type_means_.reserve(num_types_);

  double grand_sum = 0.0;
  for (std::size_t type = 0; type < num_types_; ++type) {
    double type_sum = 0.0;
    for (std::size_t node = 0; node < num_nodes_; ++node) {
      // One discretization per (type, node); P-states reuse it with a
      // support scale, mirroring §VI's "multipliers ... scale the execution
      // time distributions".
      const pmf::Pmf base =
          pmf::DiscretizedGamma(etc.at(type, node), exec_cov, discretize);
      for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
        const double multiplier =
            cluster.node(node).pstates[s].time_multiplier;
        pmf::Pmf scaled = base.ScaleValues(multiplier);
        const double mean = scaled.Expectation();
        pmfs_.push_back(std::move(scaled));
        means_.push_back(mean);
        type_sum += mean;
      }
    }
    const double denom =
        static_cast<double>(num_nodes_ * cluster::kNumPStates);
    type_means_.push_back(type_sum / denom);
    grand_sum += type_sum / denom;
  }
  grand_mean_ = grand_sum / static_cast<double>(num_types_);
}

TaskTypeTable::TaskTypeTable(std::size_t num_types, std::size_t num_nodes,
                             std::vector<pmf::Pmf> pmfs)
    : num_types_(num_types), num_nodes_(num_nodes), pmfs_(std::move(pmfs)) {
  ECDRA_REQUIRE(num_types_ >= 1 && num_nodes_ >= 1,
                "table must be non-empty");
  ECDRA_REQUIRE(pmfs_.size() == num_types_ * num_nodes_ * cluster::kNumPStates,
                "need one pmf per (type, node, P-state)");
  means_.reserve(pmfs_.size());
  type_means_.reserve(num_types_);
  double grand_sum = 0.0;
  const double per_type =
      static_cast<double>(num_nodes_ * cluster::kNumPStates);
  for (std::size_t type = 0; type < num_types_; ++type) {
    double type_sum = 0.0;
    for (std::size_t i = 0; i < num_nodes_ * cluster::kNumPStates; ++i) {
      const pmf::Pmf& pmf = pmfs_[type * num_nodes_ * cluster::kNumPStates + i];
      ECDRA_REQUIRE(!pmf.empty(), "explicit pmfs must be non-empty");
      const double mean = pmf.Expectation();
      means_.push_back(mean);
      type_sum += mean;
    }
    type_means_.push_back(type_sum / per_type);
    grand_sum += type_sum / per_type;
  }
  grand_mean_ = grand_sum / static_cast<double>(num_types_);
}

const pmf::Pmf& TaskTypeTable::ExecPmf(std::size_t type, std::size_t node,
                                       cluster::PStateIndex pstate) const {
  return pmfs_[Index(type, node, pstate)];
}

double TaskTypeTable::MeanExec(std::size_t type, std::size_t node,
                               cluster::PStateIndex pstate) const {
  return means_[Index(type, node, pstate)];
}

double TaskTypeTable::TypeMeanOverAll(std::size_t type) const {
  RequireTypeInRange("task-type table", type, num_types_);
  return type_means_[type];
}

}  // namespace ecdra::workload
