#include "batch/batch_heuristics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/assert.hpp"

namespace ecdra::batch {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-task score of its best remaining candidate; used by every two-phase
/// heuristic. `score(task, candidate)` — lower is better.
struct Scored {
  const core::Candidate* best = nullptr;
  double best_score = kInf;
  double second_core_score = kInf;  // best score achieved on another core
};

/// The best and second-core scores among `task`'s candidates on cores not
/// yet taken; `scores[k]` is the score of `task.candidates[k]`.
Scored BestRemaining(const BatchTask& task, const double* scores,
                     const std::vector<bool>& core_taken) {
  Scored result;
  for (std::size_t k = 0; k < task.candidates.size(); ++k) {
    const core::Candidate& candidate = task.candidates[k];
    if (core_taken[candidate.assignment.flat_core]) continue;
    const double s = scores[k];
    if (s < result.best_score) {
      if (result.best != nullptr &&
          result.best->assignment.flat_core != candidate.assignment.flat_core) {
        result.second_core_score = result.best_score;
      }
      result.best = &candidate;
      result.best_score = s;
    } else if (result.best != nullptr &&
               candidate.assignment.flat_core !=
                   result.best->assignment.flat_core &&
               s < result.second_core_score) {
      result.second_core_score = s;
    }
  }
  return result;
}

/// Generic two-phase greedy: repeatedly find every unassigned task's best
/// remaining candidate, pick the task minimizing `select(scored)`, commit,
/// repeat until no task has a feasible core left. A score does not change
/// within the call, so each candidate is scored once, into `scores` (the
/// heuristic's buffer, reused across events), task by task in order.
template <typename ScoreFn, typename SelectFn>
std::vector<BatchAssignment> TwoPhaseGreedy(const std::vector<BatchTask>& tasks,
                                            std::vector<double>& scores,
                                            ScoreFn&& score,
                                            SelectFn&& select) {
  std::size_t max_core = 0;
  scores.clear();
  for (const BatchTask& task : tasks) {
    for (const core::Candidate& candidate : task.candidates) {
      max_core = std::max(max_core, candidate.assignment.flat_core);
      scores.push_back(score(task, candidate));
    }
  }
  std::vector<bool> core_taken(max_core + 1, false);
  std::vector<bool> task_done(tasks.size(), false);
  std::vector<BatchAssignment> assignments;

  for (;;) {
    const core::Candidate* chosen_candidate = nullptr;
    std::size_t chosen_task = 0;
    double chosen_priority = kInf;
    const double* task_scores = scores.data();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const double* const own = task_scores;
      task_scores += tasks[i].candidates.size();
      if (task_done[i]) continue;
      const Scored scored = BestRemaining(tasks[i], own, core_taken);
      if (scored.best == nullptr) continue;  // no feasible core left
      const double priority = select(scored);
      if (priority < chosen_priority) {
        chosen_priority = priority;
        chosen_task = i;
        chosen_candidate = scored.best;
      }
    }
    if (chosen_candidate == nullptr) break;
    core_taken[chosen_candidate->assignment.flat_core] = true;
    task_done[chosen_task] = true;
    assignments.push_back(
        BatchAssignment{tasks[chosen_task].pending_index, *chosen_candidate});
  }
  return assignments;
}

/// A built-in batch heuristic: TwoPhaseGreedy with `score(task, candidate,
/// now)` (lower is better) and `select(scored)` (the task with the lowest
/// value maps first). Both are lambda types, so they inline into the loop.
template <typename Score, typename Select>
class TwoPhaseHeuristic final : public BatchHeuristic {
 public:
  TwoPhaseHeuristic(std::string_view name, Score score, Select select)
      : name_(name), score_(score), select_(select) {}

  [[nodiscard]] std::vector<BatchAssignment> MapBatch(
      const std::vector<BatchTask>& tasks, double now) override {
    if (tasks.empty()) return {};
    return TwoPhaseGreedy(
        tasks, scores_,
        [this, now](const BatchTask& task, const core::Candidate& c) {
          return score_(task, c, now);
        },
        select_);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }

 private:
  std::string_view name_;
  [[no_unique_address]] Score score_;
  [[no_unique_address]] Select select_;
  std::vector<double> scores_;  // TwoPhaseGreedy's per-candidate scores
};

/// Registers `name` (a string literal) as a TwoPhaseHeuristic.
template <typename Score, typename Select>
void RegisterTwoPhase(std::string_view name, Score score, Select select) {
  BatchHeuristicRegistry().Register(std::string(name), [=] {
    return std::make_unique<TwoPhaseHeuristic<Score, Select>>(name, score,
                                                              select);
  });
}

/// ECT = now + EET: every candidate core is idle.
constexpr auto kCompletionTime = [](const BatchTask&, const core::Candidate& c,
                                    double now) { return now + c.eet; };
constexpr auto kBestScore = [](const Scored& s) { return s.best_score; };

}  // namespace

BatchHeuristicRegistryType& BatchHeuristicRegistry() {
  static BatchHeuristicRegistryType registry("batch heuristic");
  return registry;
}

std::unique_ptr<BatchHeuristic> MakeBatchHeuristic(std::string_view name) {
  return BatchHeuristicRegistry().Make(name);
}

// Built-ins register here (this object file is always retained via
// MakeBatchHeuristic), not in per-heuristic translation units a static
// library could drop.

// Min-Min completion time: the task that can finish soonest maps first.
ECDRA_POLICY_REGISTRATION(RegisterTwoPhase("MinMinCT", kCompletionTime,
                                           kBestScore))

// Sufferage: the task that would lose most without its best core maps
// first.
ECDRA_POLICY_REGISTRATION(RegisterTwoPhase(
    "Sufferage", kCompletionTime, [](const Scored& s) {
      // Largest sufferage first; tasks with only one feasible core have
      // infinite sufferage and are mapped before anything else.
      const double sufferage = s.second_core_score == kInf
                                   ? kInf
                                   : s.second_core_score - s.best_score;
      return -sufferage;
    }))

// Max-Max robustness: the task with the highest achievable rho maps first
// (lower score = higher rho).
ECDRA_POLICY_REGISTRATION(RegisterTwoPhase(
    "MaxMaxRob",
    [](const BatchTask& task, const core::Candidate& c, double now) {
      return -BatchOnTimeProbability(c, *task.task, now);
    },
    kBestScore))

// Min-Min energy: the task with the cheapest assignment maps first.
ECDRA_POLICY_REGISTRATION(RegisterTwoPhase(
    "MinMinEnergy",
    [](const BatchTask&, const core::Candidate& c, double) { return c.eec; },
    kBestScore))

}  // namespace ecdra::batch
