// The batch-heuristic registry. Its four built-ins are the classic
// two-phase greedy batch heuristics, adapted to this environment
// (candidates carry a P-state dimension and stochastic quantities):
//
//  * MinMinCT, Min-Min completion time [MaA99]: map the task that can
//    finish soonest.
//  * Sufferage [MaA99 family]: map the task that would suffer most from not
//    getting its best core (largest best-vs-second-best-core ECT gap).
//  * MaxMaxRob, Max-Max robustness [SmA10 flavour]: map the task with the
//    highest achievable on-time probability, at its most robust assignment.
//  * MinMinEnergy, Min-Min energy: map the task with the cheapest
//    achievable assignment — the batch analogue of greedy energy
//    minimization.
#pragma once

#include <memory>
#include <string>

#include "batch/batch_heuristic.hpp"
#include "policy/registry.hpp"

namespace ecdra::batch {

using BatchHeuristicRegistryType = policy::Registry<BatchHeuristic>;

/// The process-wide batch-heuristic registry; the four built-ins above
/// self-register from batch_heuristics.cpp.
[[nodiscard]] BatchHeuristicRegistryType& BatchHeuristicRegistry();

/// Factory by registered name; throws std::invalid_argument listing the
/// registered names for unknown ones.
[[nodiscard]] std::unique_ptr<BatchHeuristic> MakeBatchHeuristic(
    std::string_view name);

}  // namespace ecdra::batch

/// Registers a batch-mode heuristic under `name` at static initialization.
/// The factory is any callable () -> std::unique_ptr<batch::BatchHeuristic>.
#define ECDRA_REGISTER_BATCH_HEURISTIC(name, ...)                            \
  ECDRA_POLICY_REGISTRATION(                                                 \
      ::ecdra::batch::BatchHeuristicRegistry().Register((name), __VA_ARGS__))
