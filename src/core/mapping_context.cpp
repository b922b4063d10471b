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
/// comparison it stands for. `rho` is computed outside the context's memo,
/// so an audit leaves every later answer, and its counters, as they would
/// be without it.
void AuditRhoBound(validate::TrialValidator& validator,
                   const MappingContext& ctx, const Candidate& candidate,
                   double threshold, bool below, double rho) {
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
    std::span<const CoreAvailability> availability, Buffers* lent)
    : cluster_(&cluster),
      types_(&types),
      task_(&task),
      now_(now),
      cores_(cores),
      lent_(lent) {
  ECDRA_REQUIRE(cores.size() == cluster.total_cores(),
                "one CoreQueueModel per core required");
  ECDRA_REQUIRE(
      availability.empty() || availability.size() == cluster.total_cores(),
      "availability span must cover every core or be empty");
  Buffers& memo = buffers();
  memo.ready.assign(cores.size(), robustness::Moments{kNaN, kNaN});
  memo.rho.clear();
  std::vector<Candidate>& candidates = memo.candidates;
  candidates.clear();
  candidates.reserve(cluster.total_cores() * cluster::kNumPStates);
  for (std::size_t flat = 0; flat < cluster.total_cores(); ++flat) {
    cluster::PStateIndex first_pstate = 0;
    if (!availability.empty()) {
      if (!availability[flat].available) continue;
      first_pstate = availability[flat].pstate_floor;
    }
    AppendCoreCandidates(candidates, cluster, types, task.type, flat,
                         cluster.NodeIndexOf(flat), first_pstate);
  }
}

MappingContext::MappingContext(const cluster::Cluster& cluster,
                               const workload::Task& task, double now,
                               std::vector<Candidate> candidates,
                               double average_queue_depth,
                               RhoQuantiles* quantiles)
    : cluster_(&cluster),
      task_(&task),
      now_(now),
      own_{.candidates = std::move(candidates), .ready = {}, .rho = {}},
      queue_depth_override_(average_queue_depth),
      quantiles_(quantiles) {
  ECDRA_REQUIRE(average_queue_depth >= 0.0,
                "average queue depth must be non-negative");
}

double MappingContext::ExpectedCompletionTime(
    const Candidate& candidate) const {
  // Batch shape: every candidate core is idle, so it is ready now.
  if (cores_.empty()) return now_ + candidate.eet;
  const std::size_t flat = candidate.assignment.flat_core;
  double& mean = buffers().ready[flat].mean;
  if (std::isnan(mean)) mean = cores_[flat].ExpectedReadyTime(now_);
  return mean + candidate.eet;
}

double MappingContext::OnTimeProbability(const Candidate& candidate) const {
  // Batch shape: no queue ahead of the task, rho = F_exec(deadline - now).
  if (cores_.empty()) return candidate.exec->CdfAt(task_->deadline - now_);
  std::vector<Buffers::Rho>& memo = buffers().rho;
  if (memo.empty()) {
    memo.resize((cores_.size() + cluster_->num_nodes()) *
                cluster::kNumPStates);
  }
  Buffers::Rho& entry = memo[RhoSlot(candidate)];
  if (entry.exec == nullptr) {
    entry = Buffers::Rho{
        candidate.exec,
        robustness::OnTimeProbability(cores_[candidate.assignment.flat_core],
                                      now_, *candidate.exec, task_->deadline)};
  }
  ECDRA_ASSERT(entry.exec == candidate.exec,
               "an assignment fixes the exec pmf within one context");
  return entry.rho;
}

bool MappingContext::QueuedRhoBelow(const Candidate& candidate,
                                    double threshold) const {
  const Assignment& at = candidate.assignment;
  if (!buffers().rho.empty()) {
    const Buffers::Rho& known = buffers().rho[RhoSlot(candidate)];
    if (known.exec != nullptr) return known.rho < threshold;
  }
  ECDRA_ASSERT(types_->ExecRow(task_->type, candidate.node) + at.pstate ==
                   candidate.exec,
               "a candidate's exec pmf comes from the context's table");
  robustness::Moments& ready = buffers().ready[at.flat_core];
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
    AuditRhoBound(*validator, *this, candidate, threshold, *below,
                  robustness::OnTimeProbability(cores_[at.flat_core], now_,
                                                *candidate.exec,
                                                task_->deadline));
  }
  return *below;
}

void MappingContext::AuditRhoQuantile(validate::TrialValidator& validator,
                                      const Candidate& candidate,
                                      double threshold, bool below) const {
  validator.CountChecks();
  const double rho = candidate.exec->CdfAt(task_->deadline - now_);
  if ((rho < threshold) == below) return;
  std::ostringstream os;
  os << std::setprecision(17) << "task " << task_->id << " on core "
     << candidate.assignment.flat_core << " P"
     << static_cast<int>(candidate.assignment.pstate) << " at deadline - now = "
     << task_->deadline - now_ << ": the quantile table answered "
     << (below ? "rho < " : "rho >= ") << threshold << " but rho is " << rho;
  validator.Fail("rho-quantile", now_, os.str());
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
