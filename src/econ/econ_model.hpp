// Economic model of the workload (ROADMAP item 3; Li et al. arXiv:1501.05414):
// every task type carries a revenue earned on on-time completion, every joule
// carries a price, and every task belongs to an SLA tier that scales its value
// and its slice of the energy filter's fair share. The model is attached to
// the workload after generation (AssignEconAttributes) so the task stream,
// arrival process, and every existing RNG substream stay bit-identical; a
// trivial (all-zeros) model stamps nothing and reads as zero value, zero
// price and neutral tiers, which is what keeps the golden paper grid
// byte-for-byte unchanged.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "workload/task.hpp"

namespace ecdra::econ {

/// One SLA class customers can buy. Tiers compose with the existing
/// priority-scaled fair share: a gold task is both worth more on completion
/// (value_multiplier) and allowed a larger energy slice (share_multiplier),
/// and may demand a minimum assurance (rho_floor, enforced by the "sla"
/// filter). `probability` is the mix weight at workload generation.
struct SlaTier {
  std::string name = "best-effort";
  double value_multiplier = 1.0;
  double share_multiplier = 1.0;
  double rho_floor = 0.0;
  double probability = 1.0;

  friend bool operator==(const SlaTier&, const SlaTier&) = default;
};

struct EconModel {
  /// Revenue per on-time completion by task type. Short lists cycle over the
  /// type index ("1,10" prices alternating types without spelling out all of
  /// them); empty means every type is worth zero.
  std::vector<double> type_values;
  /// SLA tier mix; empty behaves as a single neutral best-effort tier.
  std::vector<SlaTier> tiers;
  /// Cost per joule of consumed energy.
  double energy_price = 0.0;
  /// Seconds past the deadline over which a late finish's value decays
  /// linearly to zero. 0 keeps the paper's hard cutoff: late is worthless.
  double value_decay = 0.0;

  /// True when the model cannot change any economic outcome: all values
  /// zero, free energy, and only neutral tiers. Trivial models are treated
  /// exactly like "econ off" so the degenerate configuration stays
  /// bit-identical to the pre-econ system.
  [[nodiscard]] bool trivial() const noexcept;

  /// Base (tier-unscaled) value of a type; cycles over short lists.
  [[nodiscard]] double ValueForType(std::size_t type) const noexcept;

  /// Tier of a task, bounds-checked; the neutral tier when `tiers` is empty.
  [[nodiscard]] const SlaTier& TierOf(std::size_t tier) const;

  /// Revenue realized by finishing a task of tier-scaled value `value` with
  /// deadline `deadline` at `finish`: full value on time, linear decay inside
  /// the decay window, zero after.
  [[nodiscard]] double RealizedValue(double value, double deadline,
                                     double finish) const noexcept;

  friend bool operator==(const EconModel&, const EconModel&) = default;
};

/// The neutral best-effort tier returned by TierOf on an empty tier list.
[[nodiscard]] const SlaTier& NeutralTier() noexcept;

/// The all-zero model, what a run without economics reads.
[[nodiscard]] const EconModel& TrivialModel() noexcept;

/// Stamps value and SLA tier onto generated tasks. Draws tiers from the
/// caller's dedicated substream (one draw per job, shared by every stage task
/// of that job); a single-class mix draws nothing, so the degenerate
/// configuration perturbs no randomness. Throws TaskTypeRangeError when a
/// task names a type the value table cannot price.
void AssignEconAttributes(std::vector<workload::Task>& tasks,
                          const EconModel& model, std::size_t num_types,
                          util::RngStream rng);

}  // namespace ecdra::econ
