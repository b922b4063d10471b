// Streaming service mode, spec layer (src/stream holds the runtime).
//
// The paper's regime is a fixed trace against one total-energy budget
// zeta_max; the streaming extension serves the same trace against an energy
// *rate* — joules accrue into a capped account while cores debit it through
// the exact Eq. 1/2 accounting. A ScenarioSpec carries the stream block as
// plain data here so every consumer (CLI, checkpoint fingerprint, bench)
// names the configuration the same way; the accrual/admission machinery
// itself lives in src/stream and the engine.
//
// Run-mode selection is explicit (RunMode), never inferred: a spec whose
// stream block is populated but executed by a consumer that cannot stream
// (the fixed-trace paper mode, the batch stack) is refused with a typed
// one-line StreamSpecError naming the stream.* fields — silently ignoring
// the block would report paper-mode results under a streaming label.
#pragma once

#include <stdexcept>
#include <string>

namespace ecdra::policy {

/// How a spec's trials execute: the paper's fixed-trace window against
/// zeta_max, the streaming service mode (src/stream), or batch mode
/// (src/batch: sim::RunSingleTrial builds a batch::BatchScheduler instead
/// of the immediate one). kBatch is never spec-selected; it is named here
/// so refusals can say who is refusing.
enum class RunMode { kFixedTrace, kStream, kBatch };

/// The stream block of a ScenarioSpec. Every field is result-shaping (it
/// joins the fingerprint). Fields documented as "0 = derived" are resolved
/// against the sampled environment at trial setup (stream::ResolveStreamConfig)
/// so one spec scales across cluster sizes.
struct StreamSpec {
  /// Joules per second flowing into the account. The load-bearing knob:
  /// 0 (the default) means "no stream block"; RunMode::kStream requires > 0.
  double energy_rate = 0.0;
  /// Account ceiling in joules; accrual beyond it spills. 0 = derived
  /// (2 x energy_rate x window_length).
  double accrual_cap = 0.0;
  /// Account balance at t = 0. 0 = derived (energy_rate x window_length).
  double initial_energy = 0.0;
  /// Rolling metrics window in seconds. 0 = derived (max(t_avg,
  /// last_arrival / 16)).
  double window_length = 0.0;
  /// Emergency-mode hysteresis, as fractions of the accrual cap: the engine
  /// pins cores to the deepest P-state when the balance falls below
  /// enter x cap and releases the pin once it recovers above exit x cap.
  double emergency_enter_fraction = 0.05;
  double emergency_exit_fraction = 0.20;
  /// Registered admission policy (stream::AdmissionRegistry): "none" maps
  /// every arrival (the pure-accrual baseline); "rho" defers low on-time-
  /// probability arrivals to the holding pen and drops hopeless ones;
  /// "value-density" (econ runs) drops arrivals whose value cannot cover
  /// their cheapest energy bill and defers marginal ones.
  std::string admission = "none";
  /// "rho" thresholds: defer below defer_rho, drop below drop_rho.
  double defer_rho = 0.30;
  double drop_rho = 0.05;
  /// Fairness guard: a penned task that has waited this long is admitted
  /// regardless of its rho, so backpressure cannot starve one task class
  /// forever. 0 = derived (4 x t_avg).
  double fairness_wait = 0.0;
  /// Degraded-mode hysteresis on the fraction of cluster cores lost to
  /// faults (domain outages + per-core failures): enter when the lost
  /// fraction reaches degraded_enter, exit once it falls back to
  /// degraded_exit or below (exit < enter, mirroring the energy account's
  /// emergency hysteresis). While degraded the engine shrinks governor
  /// fair-share capacity proportionally to the surviving cores and the rho
  /// admission policy tightens its thresholds.
  double degraded_enter_fraction = 0.25;
  double degraded_exit_fraction = 0.10;
  /// Multiplier (>= 1) applied to defer_rho/drop_rho while degraded;
  /// thresholds are clamped to 1. 1 disables the tightening.
  double degraded_rho_scale = 1.5;
};

/// A stream block handed to a consumer that cannot honor it (or a stream
/// run missing its rate). One line; what() names the offending stream.*
/// fields.
class StreamSpecError : public std::invalid_argument {
 public:
  explicit StreamSpecError(const std::string& what_arg)
      : std::invalid_argument(what_arg) {}
};

/// Throws StreamSpecError unless `mode` can honor `stream`: kStream
/// requires energy_rate > 0; kFixedTrace and kBatch require no stream
/// block at all (every stream.* row at its default). Defined in
/// scenario_spec.cpp, beside the field table it walks.
void RequireStreamCompatible(RunMode mode, const StreamSpec& stream);

}  // namespace ecdra::policy
