// Result-shaping run policies shared by the immediate and batch stacks and
// by the declarative ScenarioSpec. These used to live in sim/engine.hpp;
// they sit below the simulators now so the spec (and its canonical
// serialization) does not depend on either engine. sim/ re-exports them
// under their historical names (sim::IdlePolicy, sim::CancelPolicy).
#pragma once

namespace ecdra::policy {

/// What an idle core with an empty queue does (DESIGN.md decision 2).
enum class IdlePolicy {
  /// Drop to the deepest (lowest-power) P-state — the default resource
  /// manager behaviour under the paper's "cores can never be turned off"
  /// assumption (§III-A).
  kDeepestPState,
  /// Stay in the P-state of the last executed task (ablation baseline).
  kStayAtLast,
  /// Power-gate idle cores to zero draw (§VIII future work: "ACPI G-states,
  /// power gating") — an idealized instant gate; combine with
  /// pstate_transition_latency to charge a wake-up cost.
  kPowerGated,
};

/// Whether queued tasks can be cancelled. The paper's system "cannot stop a
/// task after it has been scheduled and must execute it to completion";
/// cancellation is listed as §VIII future work and implemented here as an
/// extension.
enum class CancelPolicy {
  /// Paper semantics: every assigned task runs to completion (best effort).
  kRunToCompletion,
  /// When a core picks its next task, queued tasks whose deadlines have
  /// already passed are dropped instead of executed — they are certain
  /// misses either way, and skipping them saves energy and queueing delay.
  kCancelHopelessQueued,
};

}  // namespace ecdra::policy
