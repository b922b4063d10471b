// Per-trial observability counters (docs/ARCHITECTURE.md, "obs").
//
// A Counters object is a flat registry of plain uint64/double slots — no
// locks, no atomics — because each trial owns its engine, scheduler, and
// queue models and runs on exactly one thread. Instrumentation points deep
// in the stack (pmf operations, ReadyPmf cache probes) reach the trial's
// counters through a thread-local pointer installed by CountersScope for
// the duration of Engine::Run; when no scope is active (the default) every
// instrumentation point is a single null-check and the layer costs nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>

namespace ecdra::obs {

struct Counters {
  // -- Mapping pipelines (MapTask/RemapTask, MapGang, batch scheduler) --
  /// Arrivals that received an assignment.
  std::uint64_t tasks_mapped = 0;
  /// Arrivals discarded because filtering left no feasible candidate.
  std::uint64_t tasks_discarded = 0;
  /// Candidates enumerated before any filter ran (cores x P-states summed
  /// over all arrivals).
  std::uint64_t candidates_generated = 0;
  /// Candidates pruned by the energy fair-share filter ("en").
  std::uint64_t pruned_energy = 0;
  /// Candidates pruned by the robustness threshold filter ("rob").
  std::uint64_t pruned_robustness = 0;
  /// Candidates pruned by any other (custom) filter.
  std::uint64_t pruned_other = 0;
  /// Discards attributed to the stage that emptied the candidate set.
  std::uint64_t discarded_by_energy = 0;
  std::uint64_t discarded_by_robustness = 0;
  std::uint64_t discarded_by_other = 0;

  // -- CoreQueueModel --
  /// ReadyPmf served without a rebuild since the truncation cut last moved
  /// vs. rebuilt.
  std::uint64_t ready_pmf_hits = 0;
  std::uint64_t ready_pmf_misses = 0;

  // -- pmf operations --
  std::uint64_t pmf_convolutions = 0;
  /// Compactions that actually merged impulses (support exceeded the bound).
  std::uint64_t pmf_compactions = 0;
  std::uint64_t pmf_prob_sum_leq = 0;
  std::uint64_t pmf_truncations = 0;
  /// Sibling max-combines (gang stage completion pmfs; zero without jobs).
  std::uint64_t pmf_max_ops = 0;

  // -- Engine --
  /// P-state transitions actually performed (same-state requests excluded).
  std::uint64_t pstate_switches = 0;
  /// Queued tasks dropped as hopeless (CancelPolicy::kCancelHopelessQueued).
  std::uint64_t tasks_cancelled = 0;

  // -- Fault injection (src/fault; all zero when faults are disabled) --
  /// Permanent core failures applied during the trial.
  std::uint64_t failures_injected = 0;
  /// Failed cores returned to service.
  std::uint64_t repairs_applied = 0;
  /// Transient throttle intervals begun.
  std::uint64_t throttles_applied = 0;
  /// Tasks stranded on a failed core and dropped (running + queued).
  std::uint64_t tasks_lost_to_failures = 0;
  /// Stranded tasks successfully re-mapped (RecoveryPolicy::kRequeueToScheduler).
  std::uint64_t tasks_remapped = 0;
  /// Correlated whole-domain outages applied (fault-domain extension).
  std::uint64_t domain_outages_applied = 0;
  /// Whole domains returned to service.
  std::uint64_t domain_repairs_applied = 0;
  /// Queued tasks migrated to surviving cores
  /// (RecoveryPolicy::kMigrateQueued).
  std::uint64_t tasks_migrated = 0;

  // -- Governor (src/governor; all zero under the "static" baseline) --
  /// Governor invocations (assignment/completion hooks + periodic ticks).
  std::uint64_t governor_invocations = 0;
  /// P-state floor changes applied to a core (unchanged floors not counted).
  std::uint64_t governor_pstate_caps = 0;
  /// Idle cores force-parked into the power-gated state.
  std::uint64_t governor_cores_parked = 0;
  /// Fair-share allowance scale changes (unchanged scales not counted).
  std::uint64_t governor_allowance_changes = 0;

  // -- Streaming service mode (src/stream; all zero in fixed-trace runs) --
  /// Rolling windows closed (including the final partial window).
  std::uint64_t stream_windows = 0;
  /// Arrivals deferred to the holding pen by the admission stage.
  std::uint64_t stream_deferred = 0;
  /// Tasks dropped by admission (fresh, requeued, or expired in the pen).
  std::uint64_t stream_admission_dropped = 0;
  /// Pen tasks released to the scheduler.
  std::uint64_t stream_released = 0;
  /// Releases forced by the fairness guard or the end-of-trace drain.
  std::uint64_t stream_forced_admissions = 0;
  /// Emergency-mode episodes entered by the energy account.
  std::uint64_t stream_emergency_entries = 0;

  /// Total wall-clock time spent in mapping decisions (steady_clock),
  /// seconds: MapTask/RemapTask, every MapGang call, and each batch
  /// scheduling event.
  double decision_seconds = 0.0;

  /// Adds every slot of `other` into this (cross-trial aggregation).
  void Merge(const Counters& other);

  [[nodiscard]] std::uint64_t decisions() const noexcept {
    return tasks_mapped + tasks_discarded;
  }
  /// Fraction of ReadyPmf queries served from the memo (0 when never
  /// queried).
  [[nodiscard]] double ready_pmf_hit_rate() const noexcept;
  /// True iff every slot is zero (i.e. observability was never enabled).
  [[nodiscard]] bool empty() const noexcept;
};

/// Name -> slot descriptor for every uint64 counter, enabling generic
/// printing, merging, and serialization without listing fields twice.
struct CounterField {
  std::string_view name;
  std::uint64_t Counters::* slot;
};
[[nodiscard]] std::span<const CounterField> CounterFields() noexcept;

/// Prints the non-zero counters as "name=value" pairs plus derived rates.
std::ostream& operator<<(std::ostream& os, const Counters& counters);

/// The trial's active counters (null when observability is disabled).
extern thread_local Counters* t_active_counters;

[[nodiscard]] inline Counters* ActiveCounters() noexcept {
  return t_active_counters;
}

/// Increments one slot of the active counters, if any. This is the hot-path
/// entry point: a thread-local load and a branch when disabled — the branch
/// is laid out for the disabled case, since benches with counters on
/// already pay orders of magnitude more inside the counted operations.
inline void Bump(std::uint64_t Counters::* slot) noexcept {
  if (Counters* active = t_active_counters) [[unlikely]] {
    ++(active->*slot);
  }
}

/// RAII activation of a trial's counters on the current thread. Passing
/// null is a no-op scope (observability disabled). Scopes nest; the
/// previous pointer is restored on destruction.
class CountersScope {
 public:
  explicit CountersScope(Counters* counters) noexcept
      : previous_(t_active_counters) {
    if (counters != nullptr) t_active_counters = counters;
  }
  ~CountersScope() { t_active_counters = previous_; }

  CountersScope(const CountersScope&) = delete;
  CountersScope& operator=(const CountersScope&) = delete;

 private:
  Counters* previous_;
};

}  // namespace ecdra::obs
