// Per-layer timing from outside the library. Every policy the engine reaches
// through a public registry (heuristic, filter, batch heuristic, governor,
// admission, gang placement) is re-registered as "bench.<name>": a wrapper
// that times the policy's one decision call (Select / Apply / MapBatch /
// Govern / Decide) and delegates every other virtual unchanged, so a traced
// trial makes exactly the decisions of an untraced one.
//
// The library builds fresh policy objects for every trial and destroys them
// when the trial ends, so each wrapper owns plain accumulators and adds them
// into the process-wide totals (one mutex) from its destructor.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ecdra::e2e {

enum class Layer : std::size_t {
  kHeuristic,       // core::Heuristic::Select
  kFilterEn,        // core::Filter::Apply, registry name "en"
  kFilterRob,       // core::Filter::Apply, registry name "rob"
  kFilterOther,     // core::Filter::Apply, any other filter
  kBatchHeuristic,  // batch::BatchHeuristic::MapBatch
  kGovernor,        // governor::Governor::Govern
  kAdmission,       // stream::AdmissionPolicy::Decide
  kGang,            // core::GangPlacement::Select
  kCount,
};

/// Work one layer did. items_in/items_out are the candidate counts around
/// each filter call (zero for the other layers).
struct LayerStats {
  std::uint64_t calls = 0;
  double seconds = 0.0;
  std::uint64_t items_in = 0;
  std::uint64_t items_out = 0;

  void Merge(const LayerStats& other) noexcept;
  [[nodiscard]] double us_per_call() const noexcept;
};

using LayerTotals =
    std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)>;

/// Registers the "bench.<name>" wrapper of every policy registered so far
/// in the six registries. Call once, before any trial runs; later calls do
/// nothing.
void RegisterTimedPolicies();

/// Returns the totals flushed by every wrapper destroyed so far and resets
/// them to zero.
[[nodiscard]] LayerTotals TakeLayerTotals();

/// "SQ" -> "bench.SQ".
[[nodiscard]] std::string TimedName(std::string_view name);

/// Filter variant with each filter replaced by its wrapper: "en+rob" ->
/// "bench.en+bench.rob"; "none" stays "none". With wrap_rob false, "rob"
/// stays unwrapped: ImmediateModeScheduler::ConfigureGangs reads the
/// robustness threshold through a dynamic_cast to the (final)
/// RobustnessFilter, so a wrapped "rob" would change gang placement.
[[nodiscard]] std::string TimedVariant(std::string_view variant,
                                       bool wrap_rob);

}  // namespace ecdra::e2e
