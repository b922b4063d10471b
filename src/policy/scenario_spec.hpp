// The single declarative description of an experiment (docs/ARCHITECTURE.md,
// "policy"): the sampled environment's generating options, the
// result-shaping run knobs, the (heuristic x filter-variant) policy grid,
// and the harness knobs, with one canonical text serialization.
//
// Every spec key is declared once, as one row of the field table in
// scenario_spec.cpp. The row names the ScenarioSpec member, its codec, its
// range, whether it is fingerprinted, whether batch mode can honor it, and
// its command-line flag. The canonical text, the parser, the checkpoint
// fingerprint, the mode refusals, and run_experiment_cli's flags and --help
// all walk that table, so a configuration cannot mean different things in
// different stacks. The checkpoint fingerprint is FNV-1a over
// FingerprintText(), the canonical serialization of the result-shaping
// rows (grid and harness rows excluded: they select *which* trials run and
// how, never what a trial computes).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_builder.hpp"
#include "core/factory.hpp"
#include "econ/econ_model.hpp"
#include "fault/fault_model.hpp"
#include "fault/recovery.hpp"
#include "pmf/distribution_factory.hpp"
#include "policy/run_policies.hpp"
#include "policy/stream_spec.hpp"
#include "validate/validation.hpp"
#include "workload/etc_matrix.hpp"
#include "workload/workload_generator.hpp"

namespace ecdra::policy {

/// The generating options of the §VI environment "held constant" across
/// trials: cluster shape, ETC heterogeneity, pmf discretization, workload
/// recipe, and the energy-budget scale. (sim::SetupOptions is an alias of
/// this struct.)
struct EnvironmentSpec {
  cluster::ClusterBuilderOptions cluster;
  workload::CvbOptions cvb;  // num_machines is overridden to num_nodes
  pmf::DiscretizeOptions discretize;
  workload::WorkloadGeneratorOptions workload;
  /// zeta_max = t_avg * p_avg * budget_task_count — "the energy required to
  /// execute an average task one thousand times" (§VI).
  double budget_task_count = 1000.0;
  /// Execution-time *uncertainty* (the per-(type, node) pmf CoV). 0 uses
  /// cvb.task_cov, the paper's coupling of heterogeneity and uncertainty;
  /// a positive value decouples them for the uncertainty ablation.
  double exec_cov = 0.0;
};

/// The policy grid of a study: which registered heuristics run against
/// which filter variants (the paper's §V-VI grid by default), plus the
/// batch-mode heuristics for immediate-vs-batch comparisons (empty = no
/// batch series).
struct PolicyGrid {
  std::vector<std::string> heuristics{"SQ", "MECT", "LL", "Random"};
  std::vector<std::string> filter_variants{"none", "en", "rob", "en+rob"};
  std::vector<std::string> batch_heuristics;
};

/// The result-shaping run knobs, declared once: ScenarioSpec and
/// sim::RunOptions both derive from this struct, so copying the knobs
/// between them is one slice assignment that cannot forget a field. The
/// TrialKnobs base holds the knobs a trial reads as given; the ones
/// declared here are resolved per trial before the engine sees them.
struct RunKnobs : TrialKnobs {
  /// Options for every filter either stack constructs — the one source of
  /// truth for e.g. the robustness threshold.
  core::FilterChainOptions filter_options;
  /// Fault extension (src/fault): when enabled(), each trial samples its own
  /// fault schedule from the trial's dedicated "fault" substream — no other
  /// trial draw shifts, so fault-free configurations stay bit-identical.
  /// A zero fault.horizon is replaced by (last arrival + 20 * t_avg).
  fault::FaultModelOptions fault;
  /// Correlated fault-domain grouping: comma-separated "name:lo-hi" flat-core
  /// ranges (fault::ResolveFaultDomains); empty derives one domain per
  /// cluster node.
  std::string fault_domains;
  /// Run mode (stream_spec.hpp): the paper's fixed-trace window, or the
  /// streaming service mode. Explicit, never inferred from the stream
  /// block — a mismatch is a typed refusal (RequireStreamCompatible), so a
  /// stream block can never be silently executed under paper semantics.
  /// kBatch has no spelling, so spec text cannot select it; the batch
  /// runner (batch::RunBatchTrials) sets it on its own copy.
  RunMode mode = RunMode::kFixedTrace;
  /// Streaming service knobs (src/stream); inert unless mode == kStream.
  StreamSpec stream;
  /// Econ extension (src/econ): per-type value, SLA tiers, energy price, and
  /// the late-revenue decay window. A disabled or trivial (all-zero) model
  /// takes the exact pre-econ trial path — bit-identical to the paper grid.
  bool econ_enabled = false;
  econ::EconModel econ;
};

struct ScenarioSpec : RunKnobs {
  std::uint64_t master_seed = 0;
  EnvironmentSpec environment;

  // -- Grid + harness knobs (serialized, but not fingerprinted) --
  PolicyGrid grid;
  std::size_t num_trials = 50;
  validate::ValidationMode validation = validate::ValidationMode::kOff;
};

/// One row of the field table: the single declaration of a spec key.
struct SpecField {
  enum Flags : unsigned {
    /// A grid/harness row: serialized, but not part of the fingerprint.
    kHarness = 1u << 0,
    /// Batch mode cannot honor a non-default value (BatchSpecError).
    kNoBatch = 1u << 1,
  };
  /// The member's codec, chosen by its type, with the row's range check
  /// folded into parse.
  struct Codec {
    /// Canonical value text of the member in `spec`.
    std::string (*format)(const ScenarioSpec& spec);
    /// Parses `value` into the member of `spec`; throws
    /// std::invalid_argument with a one-line reason (no key or line) and
    /// leaves `spec` unchanged on failure.
    void (*parse)(ScenarioSpec& spec, std::string_view value);
  };

  std::string_view key;
  Codec codec;
  unsigned flags = 0;
  /// run_experiment_cli spelling (empty = spec files only): the flag, its
  /// value placeholder, the value a bare switch sets (e.g. --stream sets
  /// "stream"; empty = the flag takes a value), and its --help text.
  std::string_view flag = {};
  std::string_view arg = {};
  std::string_view fixed = {};
  std::string_view help = {};

  [[nodiscard]] bool fingerprinted() const noexcept {
    return (flags & kHarness) == 0;
  }
};

/// Every row, in canonical emission order.
[[nodiscard]] std::span<const SpecField> SpecFields() noexcept;

/// The codecs' scalar parsers, for values that are not spec fields (the
/// CLI's --trial-timeout, say): the whole text must be a finite decimal
/// number or a non-negative integer. Throw std::invalid_argument naming
/// the value.
[[nodiscard]] double ParseSpecNumber(std::string_view text);
[[nodiscard]] std::uint64_t ParseSpecCount(std::string_view text);

/// Canonical serialization: a "ecdra-scenario v1" header line followed by
/// one "key = value" line per table row, in table order. Doubles use the
/// shortest decimal that round-trips bit-exactly (obs::json::Number), so
/// serialize -> parse -> serialize is byte-stable.
[[nodiscard]] std::string CanonicalSpecText(const ScenarioSpec& spec);

/// Inverse of CanonicalSpecText. Unset keys keep their defaults; unknown
/// keys, malformed or out-of-range values, and a missing/wrong header line
/// throw std::invalid_argument naming the offending line.
[[nodiscard]] ScenarioSpec ParseScenarioSpec(std::string_view text);

/// The result-shaping subset of CanonicalSpecText (seed, environment, run
/// knobs; no grid/harness lines) — the checkpoint fingerprint's preimage.
[[nodiscard]] std::string FingerprintText(const ScenarioSpec& spec);

/// FNV-1a (16 hex chars) over FingerprintText.
[[nodiscard]] std::string SpecFingerprint(const ScenarioSpec& spec);

/// FNV-1a 64-bit over arbitrary text (the hash the fingerprint and the
/// golden-regression tests share).
[[nodiscard]] std::uint64_t Fnv1a64(std::string_view text) noexcept;
[[nodiscard]] std::string Fnv1a64Hex(std::string_view text);

/// A spec handed to the batch stack with knobs it cannot honor (faults, a
/// non-static governor, econ, gang jobs, DVFS latency, stochastic power).
/// One line; what() names every offending "key = value".
class BatchSpecError : public std::invalid_argument {
 public:
  explicit BatchSpecError(const std::string& what_arg)
      : std::invalid_argument(what_arg) {}
};

/// Throws StreamSpecError for a non-default stream block, then
/// BatchSpecError for any other non-default kNoBatch row.
void RequireBatchCompatible(const ScenarioSpec& spec);

}  // namespace ecdra::policy
