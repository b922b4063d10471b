#include "stream/admission.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace ecdra::stream {

bool RhoOracle::Reaches(double threshold, double scale) const {
  ECDRA_REQUIRE(std::isfinite(scale) && scale >= 0.0 && !std::isnan(threshold),
                "rho oracle: scale must be finite and >= 0, and threshold "
                "a number");
  if (scan_ != nullptr) return scan_->Reaches(threshold, scale);
  return scale * best_rho_ >= threshold;
}

AdmissionRegistryType& AdmissionRegistry() {
  static AdmissionRegistryType registry("admission policy");
  return registry;
}

std::vector<std::string> AdmissionNames() { return AdmissionRegistry().Names(); }

std::unique_ptr<AdmissionPolicy> MakeAdmissionPolicy(
    std::string_view name, const AdmissionOptions& options) {
  return AdmissionRegistry().Make(name, options);
}

namespace {

class NoAdmission final : public AdmissionPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "none";
  }
  [[nodiscard]] bool active() const noexcept override { return false; }
  [[nodiscard]] AdmissionVerdict Decide(const AdmissionView&) override {
    return AdmissionVerdict::kAdmit;
  }
};

class RhoAdmission final : public AdmissionPolicy {
 public:
  explicit RhoAdmission(const AdmissionOptions& options) : options_(options) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "rho";
  }

  [[nodiscard]] AdmissionVerdict Decide(const AdmissionView& view) override {
    // A passed deadline is hopeless whatever rho says.
    if (view.deadline <= view.now) return AdmissionVerdict::kDrop;
    // Fairness guard before the thresholds: a task that has waited out the
    // guard gets mapped even with a poor rho — starving one task class to
    // polish the on-time rate is not a trade this policy makes.
    if (options_.fairness_wait > 0.0 &&
        view.now - view.arrival >= options_.fairness_wait) {
      return AdmissionVerdict::kAdmitForced;
    }
    // Degraded mode (capacity lost to faults): raise both thresholds so the
    // shrunken cluster stops accepting work it can no longer carry, instead
    // of queueing near-certain misses behind the survivors.
    const double scale =
        view.degraded ? std::max(1.0, options_.degraded_rho_scale) : 1.0;
    const double drop_rho = std::min(1.0, options_.drop_rho * scale);
    const double defer_rho = std::min(1.0, options_.defer_rho * scale);
    if (!view.best_rho.Reaches(drop_rho)) return AdmissionVerdict::kDrop;
    if (!view.best_rho.Reaches(defer_rho)) return AdmissionVerdict::kDefer;
    return AdmissionVerdict::kAdmit;
  }

 private:
  AdmissionOptions options_;
};

/// Econ extension: admit by expected value per joule. The cheapest possible
/// energy bill for the task is price * cheapest_energy; a task whose
/// tier-scaled value cannot cover that bill even when it certainly finishes
/// on time (rho = 1) is dropped outright, and one whose *expected* revenue
/// (value * best_rho) falls short is deferred to the pen in the hope that
/// draining queues raise its odds. Under a trivial model value and price
/// are zero, both rules are vacuous, and the policy admits everything —
/// streaming baselines are unchanged.
class ValueDensityAdmission final : public AdmissionPolicy {
 public:
  explicit ValueDensityAdmission(const AdmissionOptions& options)
      : options_(options) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "value-density";
  }

  [[nodiscard]] AdmissionVerdict Decide(const AdmissionView& view) override {
    // A passed deadline earns nothing whatever the price says.
    if (view.deadline <= view.now) return AdmissionVerdict::kDrop;
    // Same fairness guard as "rho": a task that waited out the guard gets
    // mapped even at a loss — admission shapes profit, it does not starve.
    if (options_.fairness_wait > 0.0 &&
        view.now - view.arrival >= options_.fairness_wait) {
      return AdmissionVerdict::kAdmitForced;
    }
    const double cheapest_bill = view.energy_price * view.cheapest_energy;
    // Unprofitable even at certainty: no queue state can redeem it.
    if (view.value < cheapest_bill) return AdmissionVerdict::kDrop;
    // Expected revenue under the best available core falls short of the
    // cheapest bill: park it until completions improve its odds.
    if (!view.best_rho.Reaches(cheapest_bill, view.value)) {
      return AdmissionVerdict::kDefer;
    }
    return AdmissionVerdict::kAdmit;
  }

 private:
  AdmissionOptions options_;
};

}  // namespace

// Self-registration of the built-ins. This translation unit always links
// (the registry accessor lives here), so the names are present in any
// binary that calls MakeAdmissionPolicy.
ECDRA_REGISTER_ADMISSION("none", [](const AdmissionOptions&) {
  return std::make_unique<NoAdmission>();
})
ECDRA_REGISTER_ADMISSION("rho", [](const AdmissionOptions& options) {
  return std::make_unique<RhoAdmission>(options);
})
ECDRA_REGISTER_ADMISSION("value-density", [](const AdmissionOptions& options) {
  return std::make_unique<ValueDensityAdmission>(options);
})

}  // namespace ecdra::stream
