#include "governor/governor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ecdra::governor {

GovernorRegistryType& GovernorRegistry() {
  static GovernorRegistryType registry("governor");
  return registry;
}

std::unique_ptr<Governor> MakeGovernor(std::string_view name) {
  return GovernorRegistry().Make(name);
}

namespace {

/// The paper baseline: never invoked. The all-off cadence makes the engine
/// skip every governor hook, so a "static" trial takes the exact pre-governor
/// event path — the golden paper-grid fixture holds bit-identically.
class StaticGovernor final : public Governor {
 public:
  [[nodiscard]] std::string_view name() const override { return "static"; }
  [[nodiscard]] GovernorCadence cadence() const override { return {}; }
  void Govern(const GovernorObservation&, GovernorHost&) override {}
};

/// Race-to-idle: tasks run at whatever state the heuristic chose, but a core
/// with nothing assigned is power-gated instead of drawing the deepest
/// P-state's idle power. Under IdlePolicy::kPowerGated idle cores already
/// draw nothing and every park request refuses — the governor degrades to a
/// no-op, as it should.
class RaceToIdleGovernor final : public Governor {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "race-to-idle";
  }
  [[nodiscard]] GovernorCadence cadence() const override {
    return GovernorCadence{.on_completion = true};
  }
  void Govern(const GovernorObservation& observation,
              GovernorHost& host) override {
    for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
      const CoreView& core = observation.cores[flat];
      if (!core.busy && !core.parked) (void)host.ParkIdleCore(flat);
    }
  }
};

/// Proportional controller on the observed burn against the linear budget
/// schedule zeta_max * t / horizon. Over-burning tightens the fair-share
/// allowance, raises a global P-state floor (slower, lower-power states
/// spend fewer joules per task), and parks idle cores; under-burning lifts
/// the floor and loosens the allowance back toward (and slightly past) the
/// paper's static filter.
class BudgetFeedbackGovernor final : public Governor {
 public:
  /// Deficit fraction treated as "on schedule" (no action).
  static constexpr double kDeadband = 0.02;
  /// One extra floor step per this much over-burn deficit.
  static constexpr double kFloorGain = 0.04;
  /// Fair-share scale sensitivity to the deficit.
  static constexpr double kScaleGain = 4.0;
  static constexpr double kMinScale = 0.2;
  static constexpr double kMaxScale = 1.5;

  [[nodiscard]] std::string_view name() const override {
    return "budget-feedback";
  }
  [[nodiscard]] GovernorCadence cadence() const override {
    return GovernorCadence{.on_assignment = true, .on_completion = true};
  }
  void Govern(const GovernorObservation& observation,
              GovernorHost& host) override {
    if (observation.budget <= 0.0 || observation.horizon <= 0.0) return;
    // err > 0: ahead of the linear schedule (over-burning).
    const double schedule =
        observation.budget *
        std::min(1.0, observation.now / observation.horizon);
    const double err =
        (observation.consumed - schedule) / observation.budget;

    cluster::PStateIndex floor = 0;
    double scale = 1.0;
    if (err > kDeadband) {
      floor = static_cast<cluster::PStateIndex>(
          std::min<double>(cluster::kNumPStates - 1.0,
                           std::floor((err - kDeadband) / kFloorGain) + 1.0));
      scale = std::max(kMinScale, 1.0 - kScaleGain * err);
      for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
        const CoreView& core = observation.cores[flat];
        if (!core.busy && !core.parked) (void)host.ParkIdleCore(flat);
      }
    } else if (err < -kDeadband) {
      scale = std::min(kMaxScale, 1.0 - kScaleGain * err);
    }
    for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
      host.SetPStateFloor(flat, floor);
    }
    host.SetFairShareScale(scale);
  }
};

/// Caps a core's P-state set only when the slack pmf tolerates it: the cap
/// must leave the probability of the core's earliest-deadline work finishing
/// on time above kConfidence even if every remaining unit of work stretched
/// by the capped state's worst-case slowdown. Idle cores carry no slack
/// information and stay uncapped.
class DeadlineAwareGovernor final : public Governor {
 public:
  static constexpr double kConfidence = 0.9;
  static constexpr double kTickPeriod = 100.0;

  [[nodiscard]] std::string_view name() const override {
    return "deadline-aware";
  }
  [[nodiscard]] GovernorCadence cadence() const override {
    return GovernorCadence{.on_completion = true, .tick_period = kTickPeriod};
  }
  void Govern(const GovernorObservation& observation,
              GovernorHost& host) override {
    for (std::size_t flat = 0; flat < observation.queues.size(); ++flat) {
      host.SetPStateFloor(flat, FloorFor(observation, flat));
    }
  }

 private:
  [[nodiscard]] static cluster::PStateIndex FloorFor(
      const GovernorObservation& observation, std::size_t flat) {
    const robustness::CoreQueueModel& queue = observation.queues[flat];
    if (queue.idle()) return 0;
    double min_deadline = std::numeric_limits<double>::infinity();
    if (queue.running()) {
      min_deadline = std::min(min_deadline, queue.running()->deadline);
    }
    for (const robustness::ModeledTask& task : queue.queued()) {
      min_deadline = std::min(min_deadline, task.deadline);
    }
    if (!std::isfinite(min_deadline) || min_deadline <= observation.now) {
      return 0;  // already hopeless — capping cannot make it worse or better
    }
    const cluster::PStateProfile& pstates =
        observation.cluster->NodeOf(flat).pstates;
    const pmf::Pmf& ready = queue.ReadyPmf(observation.now);
    const double slack = min_deadline - observation.now;
    // Deepest floor whose worst-case stretch (relative to P0) still meets
    // the earliest deadline with confidence: completion under stretch s is
    // now + s * (T - now) for T ~ ReadyPmf, so the requirement is
    // P(T <= now + slack / s) >= kConfidence.
    for (cluster::PStateIndex floor = cluster::kNumPStates - 1; floor > 0;
         --floor) {
      const double stretch =
          pstates[floor].time_multiplier / pstates[0].time_multiplier;
      if (ready.CdfAt(observation.now + slack / stretch) >= kConfidence) {
        return floor;
      }
    }
    return 0;
  }
};

/// Econ extension: trades speed against the energy bill by the observed
/// revenue-per-joule. While the run is earning more per joule than the
/// meter charges (ratio >= 1) the cluster runs uncapped; as the margin
/// thins the governor raises a cluster-wide P-state floor in bands —
/// slower, lower-power states spend fewer joules per task, cutting the
/// bill at the cost of some late revenue. No-op without an energy price
/// (pre-econ runs unchanged) and during the warm-up before any revenue or
/// joules exist, where the ratio is meaningless.
class ProfitGuardGovernor final : public Governor {
 public:
  static constexpr double kTickPeriod = 100.0;
  /// Floor deepens one step each time the revenue/bill ratio falls through
  /// another band of this width below 1.
  static constexpr double kBandWidth = 0.25;

  [[nodiscard]] std::string_view name() const override {
    return "profit-guard";
  }
  [[nodiscard]] GovernorCadence cadence() const override {
    return GovernorCadence{.on_completion = true, .tick_period = kTickPeriod};
  }
  void Govern(const GovernorObservation& observation,
              GovernorHost& host) override {
    if (observation.energy_price <= 0.0) return;
    if (observation.consumed <= 0.0) return;
    const double bill = observation.energy_price * observation.consumed;
    const double ratio = observation.realized_revenue / bill;
    cluster::PStateIndex floor = 0;
    if (ratio < 1.0) {
      floor = static_cast<cluster::PStateIndex>(
          std::min<double>(cluster::kNumPStates - 1.0,
                           std::floor((1.0 - ratio) / kBandWidth) + 1.0));
    }
    for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
      host.SetPStateFloor(flat, floor);
    }
    // Margin under water also means idle draw is pure loss: park what sleeps.
    if (ratio < 1.0) {
      for (std::size_t flat = 0; flat < observation.cores.size(); ++flat) {
        const CoreView& core = observation.cores[flat];
        if (!core.busy && !core.parked) (void)host.ParkIdleCore(flat);
      }
    }
  }
};

// -- Built-in registrations. Kept in this translation unit (retained by any
// binary that calls MakeGovernor) for the same static-library reason as
// core/factory.cpp. --

ECDRA_REGISTER_GOVERNOR("static",
                        [] { return std::make_unique<StaticGovernor>(); })
ECDRA_REGISTER_GOVERNOR("race-to-idle",
                        [] { return std::make_unique<RaceToIdleGovernor>(); })
ECDRA_REGISTER_GOVERNOR("budget-feedback", [] {
  return std::make_unique<BudgetFeedbackGovernor>();
})
ECDRA_REGISTER_GOVERNOR("deadline-aware", [] {
  return std::make_unique<DeadlineAwareGovernor>();
})
ECDRA_REGISTER_GOVERNOR("profit-guard", [] {
  return std::make_unique<ProfitGuardGovernor>();
})

}  // namespace

}  // namespace ecdra::governor
