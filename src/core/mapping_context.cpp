#include "core/mapping_context.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>

#include "obs/counters.hpp"
#include "robustness/robustness.hpp"
#include "util/assert.hpp"
#include "validate/validation.hpp"

namespace ecdra::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Deep validation: a decided RhoBelow answer must equal the exact
/// comparison it stands for.
void AuditRhoBound(validate::TrialValidator& validator,
                   const MappingContext& ctx, const Candidate& candidate,
                   double threshold, bool below) {
  const double rho = ctx.OnTimeProbability(candidate);
  validator.CountChecks();
  if ((rho < threshold) == below) return;
  std::ostringstream os;
  os << std::setprecision(17) << "task " << ctx.task().id << " on core "
     << candidate.assignment.flat_core << " P"
     << static_cast<int>(candidate.assignment.pstate) << ": the bound answered "
     << (below ? "rho < " : "rho >= ") << threshold << " but rho is " << rho;
  validator.Fail("rho-bound", ctx.now(), os.str());
}

}  // namespace

MappingContext::MappingContext(
    const cluster::Cluster& cluster, const workload::TaskTypeTable& types,
    std::span<const robustness::CoreQueueModel> cores,
    const workload::Task& task, double now,
    std::span<const CoreAvailability> availability)
    : cluster_(&cluster),
      types_(&types),
      task_(&task),
      now_(now),
      cores_(cores),
      expected_ready_(cores.size(), robustness::Moments{kNaN, kNaN}) {
  ECDRA_REQUIRE(cores.size() == cluster.total_cores(),
                "one CoreQueueModel per core required");
  ECDRA_REQUIRE(
      availability.empty() || availability.size() == cluster.total_cores(),
      "availability span must cover every core or be empty");
  candidates_.reserve(cluster.total_cores() * cluster::kNumPStates);
  for (std::size_t flat = 0; flat < cluster.total_cores(); ++flat) {
    cluster::PStateIndex first_pstate = 0;
    if (!availability.empty()) {
      if (!availability[flat].available) continue;
      first_pstate = availability[flat].pstate_floor;
    }
    AppendCoreCandidates(candidates_, cluster, types, task.type, flat,
                         cluster.NodeIndexOf(flat), first_pstate);
  }
}

MappingContext::MappingContext(const cluster::Cluster& cluster,
                               const workload::Task& task, double now,
                               std::vector<Candidate> candidates,
                               double average_queue_depth)
    : cluster_(&cluster),
      task_(&task),
      now_(now),
      candidates_(std::move(candidates)),
      queue_depth_override_(average_queue_depth) {
  ECDRA_REQUIRE(average_queue_depth >= 0.0,
                "average queue depth must be non-negative");
}

double MappingContext::ExpectedCompletionTime(
    const Candidate& candidate) const {
  // Batch shape: every candidate core is idle, so it is ready now.
  if (cores_.empty()) return now_ + candidate.eet;
  const std::size_t flat = candidate.assignment.flat_core;
  double& mean = expected_ready_[flat].mean;
  if (std::isnan(mean)) mean = cores_[flat].ExpectedReadyTime(now_);
  return mean + candidate.eet;
}

double MappingContext::OnTimeProbability(const Candidate& candidate) const {
  // Batch shape: no queue ahead of the task, rho = F_exec(deadline - now).
  if (cores_.empty()) return candidate.exec->CdfAt(task_->deadline - now_);
  if (rho_.empty()) rho_.resize(cores_.size() * cluster::kNumPStates);
  const Assignment& at = candidate.assignment;
  RhoEntry& entry = rho_[at.flat_core * cluster::kNumPStates + at.pstate];
  if (entry.exec == nullptr) {
    entry = RhoEntry{candidate.exec,
                     robustness::OnTimeProbability(cores_[at.flat_core], now_,
                                                   *candidate.exec,
                                                   task_->deadline)};
  }
  ECDRA_ASSERT(entry.exec == candidate.exec,
               "an assignment fixes the exec pmf within one context");
  return entry.rho;
}

bool MappingContext::QueuedRhoBelow(const Candidate& candidate,
                                    double threshold) const {
  const Assignment& at = candidate.assignment;
  if (!rho_.empty()) {
    const RhoEntry& known =
        rho_[at.flat_core * cluster::kNumPStates + at.pstate];
    if (known.exec != nullptr) return known.rho < threshold;
  }
  ECDRA_ASSERT(types_->ExecRow(task_->type, candidate.node) + at.pstate ==
                   candidate.exec,
               "a candidate's exec pmf comes from the context's table");
  robustness::Moments& ready = expected_ready_[at.flat_core];
  if (std::isnan(ready.variance)) {
    ready = cores_[at.flat_core].ReadyMoments(now_);
  }
  // The candidate's exec pmf is independent of the ready time, so the
  // completion time's mean and variance are the sums.
  const std::optional<bool> below = robustness::RhoBelowBound(
      ready.mean + candidate.eet,
      ready.variance +
          types_->VarianceRow(task_->type, candidate.node)[at.pstate],
      task_->deadline, threshold);
  if (!below) return OnTimeProbability(candidate) < threshold;
  obs::Bump(*below ? &obs::Counters::rho_bound_pruned
                   : &obs::Counters::rho_bound_kept);
  if (validate::TrialValidator* validator = validate::DeepValidator()) {
    AuditRhoBound(*validator, *this, candidate, threshold, *below);
  }
  return *below;
}

double MappingContext::GangOnTimeProbability(
    std::span<const pmf::Pmf* const> member_execs,
    const pmf::Pmf* chain_tail) const {
  ECDRA_REQUIRE(!member_execs.empty(), "gang needs at least one member");
  pmf::Pmf stage = *member_execs.front();
  for (std::size_t i = 1; i < member_execs.size(); ++i) {
    pmf::MaxInto(stage, *member_execs[i], pmf::Pmf::kDefaultMaxImpulses,
                 stage);
  }
  if (chain_tail != nullptr) {
    pmf::ConvolveInto(stage, *chain_tail, pmf::Pmf::kDefaultMaxImpulses,
                      stage);
  }
  return stage.CdfAt(task_->deadline - now_);
}

double MappingContext::AverageQueueDepth() const {
  if (!std::isnan(queue_depth_override_)) return queue_depth_override_;
  std::size_t in_flight = 0;
  for (const robustness::CoreQueueModel& core : cores_) {
    in_flight += core.queue_length();
  }
  return static_cast<double>(in_flight) / static_cast<double>(cores_.size());
}

}  // namespace ecdra::core
