// Task-scheduling heuristic interface (§V-A): operating in immediate mode,
// a heuristic selects one assignment for the arriving task from the feasible
// set left over after filtering. An empty feasible set means the task is
// discarded (never executed, counted as a missed deadline).
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <type_traits>

#include "core/assignment.hpp"
#include "core/mapping_context.hpp"

namespace ecdra::core {

class Heuristic {
 public:
  virtual ~Heuristic() = default;

  /// Chooses among ctx.candidates(); nullopt iff the candidate set is empty.
  [[nodiscard]] virtual std::optional<Candidate> Select(
      const MappingContext& ctx) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// The argmin every minimizing heuristic is: the first candidate, in
/// candidate order, whose `key` is smallest; nullopt for an empty set. A
/// later candidate wins only when its key is strictly smaller, so a
/// std::pair key breaks ties lexicographically and equal keys keep
/// candidate order. `key` runs once per candidate, in order, until the best
/// key reaches `floor`, a value no key can fall below: no later candidate
/// can then win, so the rest are never keyed.
template <typename Key>
[[nodiscard]] std::optional<Candidate> FirstMinimum(
    std::span<const Candidate> candidates, Key&& key,
    std::optional<std::invoke_result_t<Key&, const Candidate&>> floor =
        std::nullopt) {
  if (candidates.empty()) return std::nullopt;
  const Candidate* best = &candidates.front();
  auto best_key = key(*best);
  for (const Candidate& candidate : candidates.subspan(1)) {
    if (floor && !(*floor < best_key)) break;
    auto candidate_key = key(candidate);
    if (candidate_key < best_key) {
      best = &candidate;
      best_key = candidate_key;
    }
  }
  return *best;
}

}  // namespace ecdra::core
