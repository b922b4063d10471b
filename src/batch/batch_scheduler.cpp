#include "batch/batch_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <utility>

#include "core/robustness_filter.hpp"
#include "util/assert.hpp"
#include "validate/validation.hpp"

namespace ecdra::batch {

BatchScheduler::BatchScheduler(const cluster::Cluster& cluster,
                               const workload::TaskTypeTable& types,
                               std::unique_ptr<BatchHeuristic> heuristic,
                               std::vector<std::unique_ptr<core::Filter>> filters,
                               double energy_budget, std::size_t window_size)
    : cluster_(&cluster),
      types_(&types),
      heuristic_(std::move(heuristic)),
      filters_(std::move(filters)),
      estimator_(energy_budget),
      window_size_(window_size) {
  ECDRA_REQUIRE(heuristic_ != nullptr, "batch scheduler needs a heuristic");
  ECDRA_REQUIRE(window_size_ >= 1, "window must contain at least one task");
  for (const auto& filter : filters_) {
    ECDRA_REQUIRE(filter != nullptr, "null filter in chain");
  }
  if (core::RobustnessThreshold(filters_) > 0.0) {
    min_exec_support_.assign(types_->num_types(),
                             std::numeric_limits<double>::infinity());
    for (std::size_t type = 0; type < types_->num_types(); ++type) {
      for (std::size_t node = 0; node < types_->num_nodes(); ++node) {
        for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
          min_exec_support_[type] = std::min(
              min_exec_support_[type], types_->ExecPmf(type, node, s).Min());
        }
      }
    }
  }
}

bool BatchScheduler::Expired(const workload::Task& task, double now) const {
  // Every batch candidate core is idle, so rho = F_exec(deadline - now), and
  // CdfAt is exactly 0 below the smallest support value of the task's exec
  // pmfs. Same subtraction as MappingContext::OnTimeProbability.
  return !min_exec_support_.empty() &&
         task.deadline - now < min_exec_support_[task.type];
}

std::vector<core::Candidate> BatchScheduler::Candidates(
    const workload::Task& task, const std::vector<bool>& core_idle) const {
  std::vector<core::Candidate> candidates;
  for (std::size_t flat = 0; flat < cluster_->total_cores(); ++flat) {
    if (!core_idle[flat]) continue;
    const std::size_t node_index = cluster_->NodeIndexOf(flat);
    const cluster::Node& node = cluster_->node(node_index);
    for (cluster::PStateIndex s = 0; s < cluster::kNumPStates; ++s) {
      const double eet = types_->MeanExec(task.type, node_index, s);
      candidates.push_back(core::Candidate{
          .assignment = core::Assignment{flat, s},
          .node = node_index,
          .exec = &types_->ExecPmf(task.type, node_index, s),
          .eet = eet,
          .eec = eet * node.pstates[s].power_watts / node.power_efficiency,
      });
    }
  }
  return candidates;
}

void BatchScheduler::AuditSkip(validate::TrialValidator& validator,
                               const workload::Task& task,
                               const std::vector<bool>& core_idle, double now,
                               double depth, std::size_t tasks_left) {
  validator.CountChecks();
  core::MappingContext ctx(*cluster_, task, now, Candidates(task, core_idle),
                           depth);
  ctx.SetBudgetView(estimator_.remaining(), tasks_left);
  core::ApplyFilters(filters_, ctx, nullptr, nullptr);
  if (ctx.candidates().empty()) return;
  std::ostringstream os;
  os << "task " << task.id << " was skipped at deadline - now = "
     << task.deadline - now << " but " << ctx.candidates().size()
     << " candidate(s) pass the filter chain";
  validator.Fail("batch-expired-skip", now, os.str());
}

std::vector<BatchAssignment> BatchScheduler::MapEvent(
    const std::vector<workload::Task>& pending,
    const std::vector<bool>& core_idle, double now, std::size_t in_flight) {
  ECDRA_REQUIRE(core_idle.size() == cluster_->total_cores(),
                "one idle flag per core required");
  if (pending.empty()) return {};
  const bool any_idle =
      std::any_of(core_idle.begin(), core_idle.end(), [](bool b) { return b; });
  if (!any_idle) return {};

  obs::Counters* const counters = obs_.counters;
  obs::TraceSink* const trace = obs_.trace;
  const bool timed = counters != nullptr || trace != nullptr;
  std::chrono::steady_clock::time_point decision_start;
  if (timed) decision_start = std::chrono::steady_clock::now();

  // Batch fair share (Eq. 6 adapted): T_left counts tasks not yet started,
  // including the pending ones; average queue depth counts running plus
  // waiting tasks per core. Both feed the shared energy filter through the
  // batch-shaped MappingContext.
  const std::size_t tasks_left =
      std::max<std::size_t>(1, window_size_ - tasks_started_);
  const double depth =
      static_cast<double>(in_flight + pending.size()) /
      static_cast<double>(cluster_->total_cores());

  // Per-pending-index candidate counts, kept only for trace records.
  std::vector<std::size_t> generated;
  if (trace != nullptr) generated.assign(pending.size(), 0);

  std::vector<BatchTask> batch;
  batch.reserve(pending.size());
  for (std::size_t index = 0; index < pending.size(); ++index) {
    const workload::Task& task = pending[index];
    // The robustness filter would reject every candidate of an expired
    // task, so its candidates are not built. It stays pending.
    if (Expired(task, now)) {
      if (validate::TrialValidator* validator = validate::DeepValidator()) {
        AuditSkip(*validator, task, core_idle, now, depth, tasks_left);
      }
      continue;
    }
    std::vector<core::Candidate> candidates = Candidates(task, core_idle);
    if (counters != nullptr) counters->candidates_generated += candidates.size();
    if (trace != nullptr) generated[index] = candidates.size();
    if (candidates.empty()) continue;

    core::MappingContext ctx(*cluster_, task, now, std::move(candidates),
                             depth);
    ctx.SetBudgetView(estimator_.remaining(), tasks_left);
    core::ApplyFilters(filters_, ctx, counters, nullptr);
    if (ctx.candidates().empty()) continue;

    batch.push_back(
        BatchTask{index, &task, std::move(ctx.candidates())});
  }

  std::vector<BatchAssignment> assignments;
  if (!batch.empty()) assignments = heuristic_->MapBatch(batch, now);
  for (const BatchAssignment& assignment : assignments) {
    ECDRA_ASSERT(assignment.pending_index < pending.size(),
                 "batch heuristic returned an invalid pending index");
    estimator_.Charge(assignment.candidate.eec);
    ++tasks_started_;
  }

  // A task left unmapped here stays pending and is reconsidered at the next
  // event, so only the committed assignments are reported; final discards
  // are counted by the engine when the event queue drains.
  if (counters != nullptr) counters->tasks_mapped += assignments.size();
  if (timed) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - decision_start;
    if (counters != nullptr) counters->decision_seconds += elapsed.count();
    if (trace != nullptr) {
      for (const BatchAssignment& assignment : assignments) {
        const workload::Task& task = pending[assignment.pending_index];
        obs::MappingDecisionRecord record;
        record.trial = obs_.trial;
        record.task_id = task.id;
        record.time = now;
        record.deadline = task.deadline;
        record.candidates_generated = generated[assignment.pending_index];
        // One batch decision maps many tasks; each record carries the whole
        // event's decision time.
        record.decision_us = elapsed.count() * 1e6;
        record.assigned = true;
        record.flat_core = assignment.candidate.assignment.flat_core;
        record.pstate = assignment.candidate.assignment.pstate;
        record.eet = assignment.candidate.eet;
        record.eec = assignment.candidate.eec;
        record.rho = BatchOnTimeProbability(assignment.candidate, task, now);
        trace->Record(record);
      }
    }
  }
  return assignments;
}

}  // namespace ecdra::batch
