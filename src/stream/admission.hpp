// Admission/backpressure stage of the streaming service mode.
//
// Under sustained oversubscription against an energy rate, mapping every
// arrival poisons the queues: tasks with near-zero on-time probability
// burn joules and delay feasible work (Gentry, Denninnart & Amini Salehi,
// arXiv:1901.09312). The admission stage sees each arrival *before* the
// scheduler does and rules admit / defer (to the holding pen) / drop,
// using the same rho(i,j,k,pi,t,z) primitive the robustness filter
// computes — best_rho is the maximum over available cores at their current
// P-state floors. Policies only compare best_rho with thresholds, so they
// ask a RhoOracle threshold questions instead of reading the max: the
// engine's scan stops at the first core that answers yes.
//
// Policies are registered by name (ECDRA_REGISTER_ADMISSION) in the
// registry shape every other policy surface shares: built-ins register at
// static initialization, duplicates throw, unknown names throw listing the
// valid choices. Built-ins: "none" (admit everything — the pure-accrual
// baseline), "rho" (threshold defer/drop with a fairness guard), and
// "value-density" (econ extension: defer/drop by expected value per joule —
// a task whose tier-scaled value cannot cover its cheapest possible energy
// bill is refused before it burns anything).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "policy/registry.hpp"
#include "stream/stream_config.hpp"

namespace ecdra::stream {

enum class AdmissionVerdict {
  /// Map it now.
  kAdmit,
  /// Map it now because the fairness guard expired — the engine counts
  /// these separately so starvation-avoidance is visible in results.
  kAdmitForced,
  /// Park it in the holding pen; re-evaluated on completions and window
  /// boundaries.
  kDefer,
  /// Refuse it outright (a near-certain miss not worth its joules).
  kDrop,
};

/// The engine side of a RhoOracle: a scan over the available cores that
/// keeps its running max of rho across questions.
class RhoScan {
 public:
  virtual ~RhoScan() = default;
  /// scale * best_rho >= threshold; the oracle has checked its arguments.
  [[nodiscard]] virtual bool Reaches(double threshold, double scale) = 0;
};

/// Threshold questions about best_rho = max(0, rho over available cores at
/// their current P-state floors). For a finite scale >= 0 rounding keeps
/// scale * rho monotone in rho, so "some core reaches the threshold" holds
/// exactly when "the max reaches it" does: a scan can answer yes at the
/// first core that does, and the verdict is the full max's.
class RhoOracle {
 public:
  /// Answers from best_rho = 0 (no engine: "none", hand-built views).
  RhoOracle() = default;
  /// Answers from a fixed best_rho.
  explicit RhoOracle(double best_rho) noexcept : best_rho_(best_rho) {}
  /// Answers through `scan`, which must outlive the oracle's use.
  explicit RhoOracle(RhoScan& scan) noexcept : scan_(&scan) {}

  /// scale * best_rho >= threshold. Requires a finite scale >= 0 and a
  /// threshold that is not NaN.
  [[nodiscard]] bool Reaches(double threshold, double scale = 1.0) const;

 private:
  double best_rho_ = 0.0;
  RhoScan* scan_ = nullptr;
};

/// What a policy sees per decision. One view is built per fresh arrival,
/// per fault-requeued task (satellite: requeues re-enter admission, never
/// jump the pen), and per pen re-evaluation; it is valid only during the
/// Decide call it is passed to.
struct AdmissionView {
  double now = 0.0;
  /// The task's original arrival — now - arrival is its total wait.
  double arrival = 0.0;
  double deadline = 0.0;
  /// Best achievable on-time probability over available cores at their
  /// current floors, asked as threshold questions. The engine's oracle
  /// evaluates rho only as far as each answer needs.
  RhoOracle best_rho;
  /// Account balance (may be negative — a deficit).
  double available_energy = 0.0;
  bool emergency = false;
  /// Degraded mode: a fault (typically a domain outage) took out enough
  /// cores to cross the degraded hysteresis — policies tighten under it.
  bool degraded = false;
  std::size_t pen_depth = 0;
  /// Econ extension (src/econ), read from the run's EconModel: under a
  /// trivial model `value` and `energy_price` are 0, which makes every
  /// econ-aware rule vacuous, so pre-econ policies and runs decide exactly
  /// as before. `value` is the task's tier-scaled revenue; `cheapest_energy`
  /// the minimum expected joules any core/P-state could spend on it;
  /// `energy_price` the model's price per joule.
  double value = 0.0;
  double cheapest_energy = 0.0;
  double energy_price = 0.0;
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// False ("none") lets the engine skip the whole admission path — the
  /// streaming baseline pays nothing for it.
  [[nodiscard]] virtual bool active() const noexcept { return true; }
  [[nodiscard]] virtual AdmissionVerdict Decide(const AdmissionView& view) = 0;
};

using AdmissionRegistryType =
    policy::Registry<AdmissionPolicy, const AdmissionOptions&>;

/// The process-wide admission registry (built-ins pre-registered).
[[nodiscard]] AdmissionRegistryType& AdmissionRegistry();

/// Registered names in lexicographic order.
[[nodiscard]] std::vector<std::string> AdmissionNames();

/// Constructs by registered name; unknown names throw listing the registry.
[[nodiscard]] std::unique_ptr<AdmissionPolicy> MakeAdmissionPolicy(
    std::string_view name, const AdmissionOptions& options);

/// Registers an admission policy under `name` at static initialization.
/// The factory is any callable (const AdmissionOptions&) ->
/// std::unique_ptr<stream::AdmissionPolicy>. Use at namespace scope in a
/// .cpp linked into the binary.
#define ECDRA_REGISTER_ADMISSION(name, ...)                              \
  ECDRA_POLICY_REGISTRATION(                                             \
      ::ecdra::stream::AdmissionRegistry().Register((name), __VA_ARGS__))

}  // namespace ecdra::stream
