// Result-shaping run policies shared by the immediate and batch stacks and
// by the declarative ScenarioSpec, and TrialKnobs, the knobs a trial's
// engine reads exactly as given. These used to live in sim/engine.hpp;
// they sit below the simulators now so the spec (and its canonical
// serialization) does not depend on either engine. sim/ re-exports the
// policies under their historical names (sim::IdlePolicy, sim::CancelPolicy).
#pragma once

#include <string>

#include "fault/recovery.hpp"

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

/// The result-shaping knobs a trial's engine reads exactly as given,
/// declared once: RunKnobs (and through it ScenarioSpec and sim::RunOptions)
/// and sim::TrialOptions all derive from this struct, so copying them from
/// a run to one of its trials is one slice assignment.
struct TrialKnobs {
  IdlePolicy idle_policy = IdlePolicy::kDeepestPState;
  CancelPolicy cancel_policy = CancelPolicy::kRunToCompletion;
  /// Time a core spends switching P-states before a task whose state
  /// differs from the core's current one can start. The paper assumes this
  /// is negligible (hundreds of microseconds vs. second-scale tasks); the
  /// ablation quantifies where that assumption breaks. The switching
  /// interval draws the *destination* state's power. At *decision* time the
  /// scheduler's completion model does not anticipate the latency (the
  /// resource manager believes the paper's assumption), but once a task
  /// starts, the CoreQueueModel records its true (delayed) start time —
  /// otherwise every subsequent rho/ReadyPmf/ExpectedReadyTime query would
  /// be systematically optimistic by the accumulated switching time.
  double pstate_transition_latency = 0.0;
  /// Coefficient of variation of per-execution sampled core power (§VIII
  /// future work: power as a distribution, not a constant). 0 = the paper's
  /// average-power model. Heuristics keep estimating EEC with the average —
  /// only the ground truth becomes noisy.
  double power_cov = 0.0;
  /// What happens to tasks stranded by a permanent core failure.
  fault::RecoveryPolicy recovery = fault::RecoveryPolicy::kDropQueued;
  /// Job extension (src/workload/job.hpp): the gang-placement policy by
  /// registered name (core::GangPlacementRegistry): "pack" fills node by
  /// node, "spread" round-robins across nodes, and the "serial" ablation
  /// baseline maps members through the per-task pipeline. Every
  /// immediate-mode trial resolves the name, gang or not, so an unknown name
  /// throws std::invalid_argument listing the registry at trial setup.
  std::string gang_placement = "pack";
  /// Online energy governor (src/governor), by registered name. "static"
  /// (the paper's open-loop baseline) declares an empty cadence, so it is
  /// never invoked, its floors stay 0 and the trial is bit-identical to a
  /// pre-governor build. Unknown names throw std::invalid_argument listing
  /// the registry at trial setup.
  std::string governor = "static";
};

}  // namespace ecdra::policy
