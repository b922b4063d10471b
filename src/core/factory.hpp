// Named construction of heuristics and filter chains — the vocabulary the
// benches, examples, and the declarative ScenarioSpec use to enumerate the
// paper's configurations (policy::PolicyGrid defaults to its heuristics
// {"SQ", "MECT", "LL", "Random"} x filter variants {"none", "en", "rob",
// "en+rob"}).
//
// Both factories are registry-driven (policy/registry.hpp): the built-in
// heuristics self-register from heuristics.cpp and the built-in filters from
// factory.cpp, and a downstream user adds a policy with one
// ECDRA_REGISTER_HEURISTIC / ECDRA_REGISTER_FILTER line in their own
// translation unit — see examples/custom_heuristic.cpp. Filter variants
// compose by name: "a+b" builds the chain [a, b], so a newly registered
// filter combines with the built-ins for free ("en+slack").
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/energy_filter.hpp"
#include "core/filter.hpp"
#include "core/heuristic.hpp"
#include "core/robustness_filter.hpp"
#include "policy/registry.hpp"
#include "util/rng.hpp"

namespace ecdra::core {

/// Options for every filter either scheduling stack constructs — the single
/// source of truth for the energy-filter knobs and the robustness threshold
/// (the batch stack consumes these too; it has no parallel options struct).
struct FilterChainOptions {
  EnergyFilterOptions energy;
  double robustness_threshold = 0.5;
};

using HeuristicRegistryType = policy::Registry<Heuristic, util::RngStream>;
using FilterRegistryType = policy::Registry<Filter, const FilterChainOptions&>;

/// The process-wide registries. Factories receive the Random heuristic's
/// choice stream (heuristic) or the shared FilterChainOptions (filter).
[[nodiscard]] HeuristicRegistryType& HeuristicRegistry();
[[nodiscard]] FilterRegistryType& FilterRegistry();

/// Creates a heuristic by registered name (case-sensitive). `rng` seeds the
/// Random heuristic's choice stream (other heuristics ignore it). Throws
/// std::invalid_argument listing the registered names for unknown ones.
[[nodiscard]] std::unique_ptr<Heuristic> MakeHeuristic(std::string_view name,
                                                       util::RngStream rng);

/// Creates a filter chain by variant name: "none" is the empty chain, and
/// any '+'-joined list of registered filter names builds that chain in the
/// listed order ("en+rob" == energy filter, then robustness filter — the
/// cheap scalar test prunes before the stochastic one). Throws
/// std::invalid_argument listing the registered filters for unknown names.
[[nodiscard]] std::vector<std::unique_ptr<Filter>> MakeFilterChain(
    std::string_view variant, const FilterChainOptions& options = {});

}  // namespace ecdra::core

/// Registers an immediate-mode heuristic under `name` at static
/// initialization. The factory is any callable
/// (util::RngStream) -> std::unique_ptr<core::Heuristic>. Use at namespace
/// scope in a .cpp that is linked into the binary.
#define ECDRA_REGISTER_HEURISTIC(name, ...)                              \
  ECDRA_POLICY_REGISTRATION(                                             \
      ::ecdra::core::HeuristicRegistry().Register((name), __VA_ARGS__))

/// Registers a mapping filter under `name`; composite variants ("en+rob",
/// "en+<name>") pick it up automatically. The factory is any callable
/// (const core::FilterChainOptions&) -> std::unique_ptr<core::Filter>.
#define ECDRA_REGISTER_FILTER(name, ...)                              \
  ECDRA_POLICY_REGISTRATION(                                          \
      ::ecdra::core::FilterRegistry().Register((name), __VA_ARGS__))
