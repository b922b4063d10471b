#include "core/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/mapping_context.hpp"
#include "core/robustness_filter.hpp"
#include "util/assert.hpp"

namespace ecdra::core {
namespace {

/// Routes a per-filter count into the matching counter slot by the filter's
/// public name ("en"/"rob"); unknown (custom) filters share one slot.
std::uint64_t obs::Counters::* PrunedSlotFor(
    std::string_view filter_name) noexcept {
  if (filter_name == "en") return &obs::Counters::pruned_energy;
  if (filter_name == "rob") return &obs::Counters::pruned_robustness;
  return &obs::Counters::pruned_other;
}

std::uint64_t obs::Counters::* DiscardSlotFor(
    std::string_view filter_name) noexcept {
  if (filter_name == "en") return &obs::Counters::discarded_by_energy;
  if (filter_name == "rob") return &obs::Counters::discarded_by_robustness;
  return &obs::Counters::discarded_by_other;
}

}  // namespace

std::string_view ApplyFilters(std::span<const std::unique_ptr<Filter>> filters,
                              MappingContext& ctx, obs::Counters* counters,
                              std::vector<obs::FilterStageRecord>* stages) {
  if (stages != nullptr) stages->reserve(filters.size());
  for (const auto& filter : filters) {
    const std::size_t before = ctx.candidates().size();
    filter->Apply(ctx);
    const std::size_t after = ctx.candidates().size();
    ECDRA_ASSERT(after <= before, "filters may only remove candidates");
    if (counters != nullptr) {
      counters->*PrunedSlotFor(filter->name()) += before - after;
    }
    if (stages != nullptr) {
      stages->push_back(obs::FilterStageRecord{std::string(filter->name()),
                                               before - after, after});
    }
    if (after == 0) return filter->name();
  }
  return {};
}

ImmediateModeScheduler::ImmediateModeScheduler(
    const cluster::Cluster& cluster, const workload::TaskTypeTable& types,
    std::unique_ptr<Heuristic> heuristic,
    std::vector<std::unique_ptr<Filter>> filters, double energy_budget,
    std::size_t window_size)
    : cluster_(&cluster),
      types_(&types),
      heuristic_(std::move(heuristic)),
      filters_(std::move(filters)),
      estimator_(energy_budget),
      window_size_(window_size) {
  ECDRA_REQUIRE(heuristic_ != nullptr, "scheduler needs a heuristic");
  ECDRA_REQUIRE(window_size_ >= 1, "window must contain at least one task");
  for (const auto& filter : filters_) {
    ECDRA_REQUIRE(filter != nullptr, "null filter in chain");
  }
}

std::optional<Candidate> ImmediateModeScheduler::MapTask(
    const workload::Task& task, double now,
    std::span<const robustness::CoreQueueModel> cores,
    std::span<const CoreAvailability> availability) {
  ECDRA_REQUIRE(tasks_seen_ < window_size_,
                "more tasks mapped than the window holds");
  ++tasks_seen_;
  // T_left includes the task being mapped so the last task still gets a
  // non-degenerate fair share (DESIGN.md decision 6).
  const std::size_t tasks_left = window_size_ - tasks_seen_ + 1;
  std::optional<Candidate> chosen = RunPipeline(
      task, now, cores, availability, tasks_left, /*remap=*/false);
  if (!chosen) ++tasks_discarded_;
  return chosen;
}

std::optional<Candidate> ImmediateModeScheduler::RemapTask(
    const workload::Task& task, double now,
    std::span<const robustness::CoreQueueModel> cores,
    std::span<const CoreAvailability> availability) {
  // The stranded task was already counted by its original MapTask; its
  // fair share matches the next arrival's (the "+1" is the task in hand).
  const std::size_t tasks_left = window_size_ - tasks_seen_ + 1;
  return RunPipeline(task, now, cores, availability, tasks_left,
                     /*remap=*/true);
}

std::optional<Candidate> ImmediateModeScheduler::RunPipeline(
    const workload::Task& task, double now,
    std::span<const robustness::CoreQueueModel> cores,
    std::span<const CoreAvailability> availability, std::size_t tasks_left,
    bool remap) {
  // Observability: counters and trace records are only assembled when an
  // attachment exists; the common (detached) path pays two null-checks.
  obs::Counters* const counters = obs_.counters;
  obs::TraceSink* const trace = obs_.trace;
  const bool timed = counters != nullptr || trace != nullptr;
  std::chrono::steady_clock::time_point decision_start;
  if (timed) decision_start = std::chrono::steady_clock::now();

  MappingContext ctx(*cluster_, *types_, cores, task, now, availability);
  ctx.SetBudgetView(estimator_.remaining(), tasks_left);
  ctx.SetFairShareScale(fair_share_scale_);
  ctx.SetEconView(econ_);

  const std::size_t candidates_generated = ctx.candidates().size();
  if (counters != nullptr) {
    counters->candidates_generated += candidates_generated;
  }

  obs::MappingDecisionRecord record;
  const std::string_view emptying_stage = ApplyFilters(
      filters_, ctx, counters, trace != nullptr ? &record.stages : nullptr);

  std::optional<Candidate> chosen = heuristic_->Select(ctx);
  if (chosen) estimator_.Charge(chosen->eec);

  // Remap outcomes are tallied by the engine (tasks_remapped /
  // tasks_lost_to_failures); the mapped/discarded slots describe the
  // arrival window only.
  if (counters != nullptr && !remap) {
    if (chosen) {
      ++counters->tasks_mapped;
    } else {
      ++counters->tasks_discarded;
      ++(counters->*DiscardSlotFor(emptying_stage));
    }
  }
  if (timed) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - decision_start;
    if (counters != nullptr) counters->decision_seconds += elapsed.count();
    if (trace != nullptr) {
      record.trial = obs_.trial;
      record.task_id = task.id;
      record.time = now;
      record.deadline = task.deadline;
      record.candidates_generated = candidates_generated;
      record.decision_us = elapsed.count() * 1e6;
      record.remap = remap;
      if (chosen) {
        record.assigned = true;
        record.flat_core = chosen->assignment.flat_core;
        record.pstate = chosen->assignment.pstate;
        record.eet = chosen->eet;
        record.eec = chosen->eec;
        record.rho = ctx.OnTimeProbability(*chosen);
      } else {
        record.discard_stage = emptying_stage;
      }
      trace->Record(record);
    }
  }
  return chosen;
}

void ImmediateModeScheduler::ConfigureGangs(const std::string& placement) {
  gang_placement_ = MakeGangPlacement(placement);
  gang_threshold_ = RobustnessThreshold(filters_);
  gang_energy_check_ = std::any_of(
      filters_.begin(), filters_.end(),
      [](const auto& filter) { return filter->name() == "en"; });
}

GangOutcome ImmediateModeScheduler::MapGang(
    std::span<const workload::Task> members, double now,
    std::span<const robustness::CoreQueueModel> cores,
    std::span<const CoreAvailability> availability,
    const pmf::Pmf* chain_tail, bool remap) {
  ECDRA_REQUIRE(gang_placement_ != nullptr,
                "MapGang requires a ConfigureGangs call first");
  ECDRA_REQUIRE(members.size() >= 2, "a gang has at least two members");
  const std::size_t width = members.size();
  GangOutcome outcome;

  obs::Counters* const counters = obs_.counters;
  obs::TraceSink* const trace = obs_.trace;
  const bool timed = counters != nullptr || trace != nullptr;
  std::chrono::steady_clock::time_point decision_start;
  if (timed) decision_start = std::chrono::steady_clock::now();

  // One context on the representative member covers the gang: a stage is
  // one task type with one shared deadline, and `availability` already
  // restricts candidates to cores that can start a member right now.
  const workload::Task& rep = members.front();
  MappingContext ctx(*cluster_, *types_, cores, rep, now, availability);
  // T_left counts the in-hand members: a fresh gang has not advanced the
  // window yet, so they are inside window - seen; a requeued gang was
  // already counted, so they come back in on top (mirroring RemapTask's
  // "+1 is the task in hand").
  std::size_t tasks_left =
      window_size_ > tasks_seen_ ? window_size_ - tasks_seen_ : 0;
  if (remap) tasks_left += width;
  tasks_left = std::max(tasks_left, width);
  ctx.SetBudgetView(estimator_.remaining(), tasks_left);
  ctx.SetFairShareScale(fair_share_scale_);
  ctx.SetEconView(econ_);
  const std::size_t candidates_generated = ctx.candidates().size();
  if (counters != nullptr) {
    counters->candidates_generated += candidates_generated;
  }
  std::vector<obs::FilterStageRecord> stages;
  ApplyFilters(filters_, ctx, counters, trace != nullptr ? &stages : nullptr);

  const auto finish = [&](GangStatus status) {
    outcome.status = status;
    if (timed && counters != nullptr) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - decision_start;
      counters->decision_seconds += elapsed.count();
    }
    return outcome;
  };

  // Distinct surviving cores, in candidate order: candidates arrive
  // flat-core-major, so same-core options are adjacent. Member rho is read
  // only by the per-core collapse, the placement policy and the joint check
  // below, so a gang short of width cores waits before computing any.
  for (const Candidate& candidate : ctx.candidates()) {
    const std::size_t flat = candidate.assignment.flat_core;
    if (outcome.feasible_cores.empty() ||
        outcome.feasible_cores.back() != flat) {
      outcome.feasible_cores.push_back(flat);
    }
  }
  if (outcome.feasible_cores.size() < width) return finish(GangStatus::kWait);

  // Collapse to the best surviving option per core (highest rho, ties
  // toward lower EEC, then the lower P-state the candidate order provides).
  // A non-final stage folds the optimistic chain tail into each member's
  // rho: an EEC tie judged on the member deadline alone would pick a
  // P-state slow enough to doom the downstream stages, and the collapse
  // here is what the placement policy and the joint fallback choose from.
  // That folded rho depends only on the exec pmf, and every core of a node
  // shares one exec pmf per P-state, so each distinct pmf is convolved with
  // the tail once per call (at most nodes x P-states entries). Note that
  // CdfAt(compact(exec (*) tail)) is not bit-identical to
  // ProbSumLeq(exec, tail, .): the memo keeps the convolution.
  std::vector<std::pair<const pmf::Pmf*, double>> tail_rho;
  const auto member_rho = [&](const Candidate& candidate) {
    if (chain_tail == nullptr) return ctx.OnTimeProbability(candidate);
    const pmf::Pmf* const exec = candidate.exec;
    const auto known = std::ranges::find(
        tail_rho, exec, &std::pair<const pmf::Pmf*, double>::first);
    if (known != tail_rho.end()) return known->second;
    const double rho =
        ctx.GangOnTimeProbability(std::span(&exec, 1), chain_tail);
    tail_rho.emplace_back(exec, rho);
    return rho;
  };
  std::vector<GangCoreOption> options;
  options.reserve(outcome.feasible_cores.size());
  for (const Candidate& candidate : ctx.candidates()) {
    const double rho = member_rho(candidate);
    if (!options.empty() && options.back().candidate.assignment.flat_core ==
                                candidate.assignment.flat_core) {
      GangCoreOption& best = options.back();
      if (rho > best.rho ||
          (rho == best.rho && candidate.eec < best.candidate.eec)) {
        best = GangCoreOption{candidate, rho};
      }
    } else {
      options.push_back(GangCoreOption{candidate, rho});
    }
  }

  // The placement policy picks *which* width cores; joint feasibility then
  // judges the set as a whole. If the preferred set fails, fall back to the
  // top-rho set (member draws are independent, so the stage CDF is the
  // product of member CDFs — the top-rho members are the best shot); if
  // that fails too, no waiting can rescue the gang.
  std::vector<std::size_t> chosen;
  chosen.reserve(width);
  gang_placement_->Select(options, width, chosen);
  ECDRA_ASSERT(chosen.size() == width,
               "gang placement must pick exactly width cores");

  const auto joint_ok = [&](const std::vector<std::size_t>& set) {
    if (gang_energy_check_) {
      double total_eec = 0.0;
      for (std::size_t idx : set) total_eec += options[idx].candidate.eec;
      if (total_eec > std::max(0.0, estimator_.remaining())) return false;
    }
    if (gang_threshold_ > 0.0) {
      std::vector<const pmf::Pmf*> execs;
      execs.reserve(set.size());
      for (std::size_t idx : set) execs.push_back(options[idx].candidate.exec);
      if (ctx.GangOnTimeProbability(execs, chain_tail) < gang_threshold_) {
        return false;
      }
    }
    return true;
  };

  if (!joint_ok(chosen)) {
    std::vector<std::size_t> by_rho(options.size());
    for (std::size_t i = 0; i < options.size(); ++i) by_rho[i] = i;
    std::sort(by_rho.begin(), by_rho.end(),
              [&](std::size_t a, std::size_t b) {
                if (options[a].rho != options[b].rho) {
                  return options[a].rho > options[b].rho;
                }
                if (options[a].candidate.eec != options[b].candidate.eec) {
                  return options[a].candidate.eec < options[b].candidate.eec;
                }
                return options[a].candidate.assignment.flat_core <
                       options[b].candidate.assignment.flat_core;
              });
    by_rho.resize(width);
    if (!joint_ok(by_rho)) return finish(GangStatus::kInfeasible);
    chosen = std::move(by_rho);
  }

  outcome.members.reserve(width);
  for (std::size_t idx : chosen) {
    outcome.members.push_back(options[idx].candidate);
    estimator_.Charge(options[idx].candidate.eec);
  }
  if (!remap) {
    ECDRA_REQUIRE(tasks_seen_ + width <= window_size_,
                  "more tasks mapped than the window holds");
    tasks_seen_ += width;
    if (counters != nullptr) counters->tasks_mapped += width;
  }
  if (trace != nullptr) {
    // finish() owns the decision_seconds tally; this elapsed value only
    // stamps the trace records.
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - decision_start;
    for (std::size_t m = 0; m < width; ++m) {
      const Candidate& member = outcome.members[m];
      obs::MappingDecisionRecord record;
      record.trial = obs_.trial;
      record.task_id = members[m].id;
      record.time = now;
      record.deadline = members[m].deadline;
      record.candidates_generated = candidates_generated;
      record.stages = stages;
      record.decision_us = elapsed.count() * 1e6 / static_cast<double>(width);
      record.remap = remap;
      record.assigned = true;
      record.flat_core = member.assignment.flat_core;
      record.pstate = member.assignment.pstate;
      record.eet = member.eet;
      record.eec = member.eec;
      record.rho = ctx.OnTimeProbability(member);
      trace->Record(record);
    }
  }
  return finish(GangStatus::kPlaced);
}

std::string ImmediateModeScheduler::VariantName() const {
  std::string name{heuristic_->name()};
  if (filters_.empty()) return name + " (none)";
  name += " (";
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (i != 0) name += "+";
    name += filters_[i]->name();
  }
  return name + ")";
}

}  // namespace ecdra::core
