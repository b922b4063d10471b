// Online energy-governance layer (docs/ARCHITECTURE.md, "governor").
//
// The paper enforces its total energy constraint with a *static* fair-share
// filter applied once per assignment (§III-C, §V); after that the run burns
// energy open-loop until zeta crosses zeta_max and every later completion is
// over budget. A Governor closes the loop: the engine invokes it at a
// cadence the governor declares (per-assignment, per-completion, and/or a
// periodic tick), hands it a read-only observation of the online energy
// meter and the per-core queue state, and lets it issue actions through the
// GovernorHost:
//
//   * SetPStateFloor(core, floor) — re-cap the P-state set candidate
//     generation may use on one core (0 = no cap; a floor f admits only
//     states with index >= f, i.e. the slower, lower-power ones). The cap
//     shapes *future* mapping decisions through the same CoreAvailability
//     view the fault extension uses; tasks already running are untouched, so
//     the Eq. 1/2 accounting needs no re-timing.
//   * ParkIdleCore(core) — force an idle core into the power-gated state
//     (zero draw) through the ordinary SwitchPState path: the transition is
//     appended to the core's nu list and mirrored into the online meter, so
//     post-hoc Eq. 1/2 and online accounting stay exactly reconciled. The
//     core remains available; its next task pays the modeled transition
//     latency back to an execution state.
//   * SetFairShareScale(s) — tighten (s < 1) or loosen (s > 1) the energy
//     filter's per-task fair share multiplicatively.
//
// Governors are registered by name (ECDRA_REGISTER_GOVERNOR) in the same
// self-registering registry shape as heuristics and filters; the ScenarioSpec
// `run.governor` key and the CLI --governor flag resolve against it. The
// "static" governor is the paper baseline: it declares an all-off cadence,
// which the engine detects and skips every hook — bit-identical to a build
// without this layer (the golden paper-grid fixture proves it).
//
// Governors must be deterministic pure decision logic: no RNG draws (trials
// share common random numbers across policy variants), no mutable state
// outside the object itself.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/pstate.hpp"
#include "policy/registry.hpp"
#include "robustness/core_queue_model.hpp"

namespace ecdra::governor {

/// When the engine invokes a governor. All-off (the default) means never —
/// the engine then allocates no governor bookkeeping at all.
struct GovernorCadence {
  /// After every arrival's mapping decision (assigned or discarded).
  bool on_assignment = false;
  /// After every task completion is handled.
  bool on_completion = false;
  /// Periodic wakeup every `tick_period` simulated time units (0 = none).
  /// Ticks order after any arrival at the same instant and stop once all
  /// work has resolved.
  double tick_period = 0.0;

  [[nodiscard]] bool any() const noexcept {
    return on_assignment || on_completion || tick_period > 0.0;
  }
};

/// Ground-truth state of one core as the governor sees it.
struct CoreView {
  bool busy = false;
  cluster::PStateIndex current_pstate = 0;
  /// The governor parked this core (power-gated while idle) and no task has
  /// started on it since.
  bool parked = false;
  /// Tasks assigned to the core (running + queued).
  std::size_t queue_length = 0;
};

/// Everything a governor may consult when invoked. Spans index by flat core
/// and are valid only for the duration of the Govern call.
struct GovernorObservation {
  double now = 0.0;
  /// Cumulative cluster energy zeta(t) drawn so far (online meter).
  double consumed = 0.0;
  /// zeta_max.
  double budget = 0.0;
  /// Instantaneous cluster draw at the wall, watts.
  double burn_watts = 0.0;
  /// The scheduler's remaining-energy estimate (can be negative).
  double estimated_remaining = 0.0;
  /// Last task arrival time — the horizon of the linear budget schedule.
  double horizon = 0.0;
  /// Arrivals mapped or discarded so far / total in the window.
  std::size_t tasks_seen = 0;
  std::size_t window_size = 0;
  const cluster::Cluster* cluster = nullptr;
  /// The resource manager's stochastic queue models (ReadyPmf etc.).
  std::span<const robustness::CoreQueueModel> queues;
  std::span<const CoreView> cores;
  /// The deepest (slowest) P-state index — the idle/parking state.
  cluster::PStateIndex idle_pstate = 0;
  /// Econ extension (src/econ), populated only when a non-trivial EconModel
  /// runs: the price per joule and the revenue realized so far. Zero price
  /// (the default) makes every econ-aware governor a no-op, so pre-econ
  /// runs are unchanged.
  double energy_price = 0.0;
  double realized_revenue = 0.0;
};

/// The engine-side action surface. Every action is counted
/// (obs::Counters::governor_*) and traced (obs::GovernorActionRecord) by the
/// host; governors stay pure decision logic.
class GovernorHost {
 public:
  virtual ~GovernorHost() = default;

  /// Restricts future candidate generation on `flat_core` to P-states with
  /// index >= `floor` (0 lifts the cap). Merged with any active fault
  /// throttle floor by max. No-op (uncounted) when the floor is unchanged.
  virtual void SetPStateFloor(std::size_t flat_core,
                              cluster::PStateIndex floor) = 0;

  /// Power-gates an idle core (zero draw) until its next task. Returns false
  /// — and does nothing — when the core is busy, failed, already parked, or
  /// already drawing nothing (IdlePolicy::kPowerGated).
  virtual bool ParkIdleCore(std::size_t flat_core) = 0;

  /// Multiplies the energy filter's per-task fair share by `scale` for every
  /// subsequent mapping decision (1 restores the paper's filter). Must be
  /// finite and positive. No-op (uncounted) when unchanged.
  virtual void SetFairShareScale(double scale) = 0;
};

class Governor {
 public:
  virtual ~Governor() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Queried once per trial, before the first event.
  [[nodiscard]] virtual GovernorCadence cadence() const = 0;
  virtual void Govern(const GovernorObservation& observation,
                      GovernorHost& host) = 0;
};

using GovernorRegistryType = policy::Registry<Governor>;

/// The process-wide governor registry (built-ins self-register from
/// governor.cpp).
[[nodiscard]] GovernorRegistryType& GovernorRegistry();

/// Every registered governor name in lexicographic order.
[[nodiscard]] std::vector<std::string> GovernorNames();

/// Creates a governor by registered name. Throws std::invalid_argument
/// listing the registered names for unknown ones.
[[nodiscard]] std::unique_ptr<Governor> MakeGovernor(std::string_view name);

}  // namespace ecdra::governor

/// Registers a governor under `name` at static initialization. The factory
/// is any callable () -> std::unique_ptr<governor::Governor>. Use at
/// namespace scope in a .cpp linked into the binary — see
/// examples/custom_governor.cpp for the one-file walkthrough.
#define ECDRA_REGISTER_GOVERNOR(name, ...)                              \
  ECDRA_POLICY_REGISTRATION(                                            \
      ::ecdra::governor::GovernorRegistry().Register((name), __VA_ARGS__))
