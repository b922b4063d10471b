#include "econ/econ_model.hpp"

#include <unordered_map>

#include "util/assert.hpp"
#include "workload/type_bounds.hpp"

namespace ecdra::econ {

namespace {

bool TierNeutral(const SlaTier& tier) {
  return tier.value_multiplier == 1.0 && tier.share_multiplier == 1.0 &&
         tier.rho_floor == 0.0;
}

}  // namespace

bool EconModel::trivial() const noexcept {
  if (energy_price != 0.0) return false;
  for (const double value : type_values) {
    if (value != 0.0) return false;
  }
  for (const SlaTier& tier : tiers) {
    if (!TierNeutral(tier)) return false;
  }
  return true;
}

double EconModel::ValueForType(std::size_t type) const noexcept {
  if (type_values.empty()) return 0.0;
  return type_values[type % type_values.size()];
}

const SlaTier& EconModel::TierOf(std::size_t tier) const {
  if (tiers.empty()) {
    ECDRA_REQUIRE(tier == 0, "task names an SLA tier but the model has none");
    return NeutralTier();
  }
  ECDRA_REQUIRE(tier < tiers.size(), "task SLA tier index out of range");
  return tiers[tier];
}

double EconModel::RealizedValue(double value, double deadline,
                                double finish) const noexcept {
  if (finish <= deadline) return value;
  if (value_decay <= 0.0) return 0.0;
  const double late = finish - deadline;
  if (late >= value_decay) return 0.0;
  return value * (1.0 - late / value_decay);
}

const SlaTier& NeutralTier() noexcept {
  static const SlaTier kNeutral{};
  return kNeutral;
}

const EconModel& TrivialModel() noexcept {
  static const EconModel kTrivial{};
  return kTrivial;
}

void AssignEconAttributes(std::vector<workload::Task>& tasks,
                          const EconModel& model, std::size_t num_types,
                          util::RngStream rng) {
  std::vector<double> weights;
  weights.reserve(model.tiers.size());
  for (const SlaTier& tier : model.tiers) {
    ECDRA_REQUIRE(tier.probability >= 0.0,
                  "SLA tier probabilities must be non-negative");
    weights.push_back(tier.probability);
  }
  // One tier draw per job (an SLA is bought per job, and a gang with mixed
  // tiers would make its joint feasibility ill-defined); degenerate tasks
  // are their own jobs, so they draw individually. A single-class mix draws
  // nothing at all — same discipline as the priority classes.
  std::unordered_map<std::size_t, std::size_t> job_tier;
  for (workload::Task& task : tasks) {
    workload::RequireTypeInRange("econ value table", task.type, num_types);
    std::size_t tier = 0;
    if (weights.size() > 1) {
      if (task.job == workload::kSelfJob) {
        tier = rng.Discrete(weights);
      } else {
        const auto [it, inserted] = job_tier.try_emplace(task.job, 0);
        if (inserted) it->second = rng.Discrete(weights);
        tier = it->second;
      }
    }
    task.tier = tier;
    task.value =
        model.ValueForType(task.type) * model.TierOf(tier).value_multiplier;
  }
}

}  // namespace ecdra::econ
