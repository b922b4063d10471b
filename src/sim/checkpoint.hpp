// Crash-safe sweep checkpointing (docs/ARCHITECTURE.md, "sim").
//
// A checkpoint is an append-only JSONL file. The first line is a header
// record pinning the schema version, master seed, and a fingerprint of
// every option that shapes per-trial results; each following line is one
// completed trial:
//
//   {"record":"header","schema":7,"seed":"14","config":"9f2ab31c6d0e8457",
//    "crc":"0a1b2c3d"}
//   {"record":"trial","heuristic":"SQ","filter":"en+rob","trial":0,
//    "result":{"window":1000,"completed":749,...},"crc":"4e5f6071"}
//
// The result table (sim::ResultBlocks(), metrics.hpp) is the single
// declaration of the "result" object's scalars.
//
// Doubles are serialized with obs::json::Number (shortest round-trip
// decimal), so a deserialized TrialResult is bit-identical to the one that
// was written — resuming a sweep reproduces an uninterrupted run exactly,
// because the skipped trials' stored results equal what re-execution would
// produce. Every line ends with a "crc" field: the CRC-32 of everything on
// the line before it, so a reader can tell a torn write from flipped bits.
// The writer flushes after every record and creates fresh headers via a
// tmp-file + rename, so a SIGKILL loses at most the single trial line in
// flight; Load can reject the damage (strict, what --resume uses) or heal
// it (LoadOptions::salvage, what --resume-salvage uses).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>

#include "sim/experiment_runner.hpp"
#include "sim/metrics.hpp"

namespace ecdra::sim {

/// Bumped whenever the record layout or the config-fingerprint preimage
/// changes incompatibly; files written with any other version are refused
/// rather than half-understood. v2: the fingerprint became FNV-1a over
/// policy::FingerprintText (the ScenarioSpec recipe) instead of an ad-hoc
/// hash of the sampled environment — the preimages differ, so v1 stores
/// must not be silently resumed against v2 hashes. v3: the fingerprint
/// preimage grew the run.governor line ("ecdra-scenario-fingerprint v2"),
/// so a v2 store cannot attest what governor produced its trials. v4: the
/// preimage grew run.mode and the stream.* block ("ecdra-scenario-fingerprint
/// v3") and trial records grew the "stream" aggregate object — a v3 store
/// cannot attest whether its trials ran fixed-trace or streaming semantics.
/// v5: every line carries a trailing "crc" field (CRC-32 of the rest of the
/// record) so torn and bit-flipped lines are distinguishable, the
/// fingerprint preimage grew the run.fault.domain_* and stream.degraded_*
/// lines ("ecdra-scenario-fingerprint v4"), and trial records grew the
/// domain-fault / migration scalars — a v4 store has none of these, so it
/// cannot attest what its trials computed and carries no CRCs to salvage by.
/// v6: the fingerprint preimage grew the job block (env.workload.jobs.*,
/// run.jobs.placement; "ecdra-scenario-fingerprint v5") and trial records
/// grew the "jobs" aggregate object — a v5 store cannot attest whether gang
/// jobs and precedence chains shaped its trials.
/// v7: the fingerprint preimage grew the econ block (env.econ.*, run.econ.*;
/// "ecdra-scenario-fingerprint v6") and trial records grew the "econ"
/// profit object — a v6 store cannot attest whether per-task value, SLA
/// tiers, or the energy price shaped its trials, so Load refuses it with
/// kSchemaVersion naming both versions.
inline constexpr std::uint32_t kCheckpointSchemaVersion = 7;

enum class CheckpointErrorKind {
  kIo,                  // cannot open / read / write the file
  kBadHeader,           // first line missing or not a header record
  kSchemaVersion,       // header schema != kCheckpointSchemaVersion
  kConfigMismatch,      // header (seed, config fingerprint) != current run
  kTruncatedRecord,     // final line cut mid-write (no trailing newline)
  kBadRecord,           // a complete line that is not a valid trial record
  kCrcMismatch,         // a complete line whose CRC-32 does not match
  kUnsupportedOptions,  // per-task traces cannot be checkpointed
};

[[nodiscard]] std::string_view CheckpointErrorKindName(
    CheckpointErrorKind kind);

class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointErrorKind kind, const std::string& message);

  [[nodiscard]] CheckpointErrorKind kind() const noexcept { return kind_; }

 private:
  CheckpointErrorKind kind_;
};

struct CheckpointHeader {
  std::uint32_t schema_version = kCheckpointSchemaVersion;
  std::uint64_t master_seed = 0;
  /// ConfigFingerprint() of the run that wrote the file.
  std::string config_hash;

  friend bool operator==(const CheckpointHeader&,
                         const CheckpointHeader&) = default;
};

/// FNV-1a fingerprint (16 hex chars) over policy::FingerprintText of the
/// ScenarioSpec this (setup, options) pair describes: the master seed, the
/// environment's generating options (which pin the sampled cluster / ETC /
/// pmf table exactly — the environment is a pure function of them), and the
/// result-shaping RunOptions knobs (policies, latencies, filter and fault
/// parameters). Deliberately excludes pure execution mechanics — thread
/// count, tracing, validation mode, watchdog/retry settings, checkpoint
/// paths — which cannot change what a trial computes.
[[nodiscard]] std::string ConfigFingerprint(const ExperimentSetup& setup,
                                            const RunOptions& options);

/// Throws kSchemaVersion / kConfigMismatch (naming both sides) unless
/// `found` matches `expected` exactly; `context` prefixes the message
/// (typically the checkpoint path).
void VerifyCheckpointHeader(const CheckpointHeader& found,
                            const CheckpointHeader& expected,
                            const std::string& context);

/// Serializes the checkpointable fields of `result` (everything except the
/// opt-in task_records / robustness_trace vectors) as one JSON object: the
/// result table's rows, then the counters and the validation report.
[[nodiscard]] std::string TrialResultToJson(const TrialResult& result);

/// Exact inverse of TrialResultToJson. Throws CheckpointError(kBadRecord).
[[nodiscard]] TrialResult TrialResultFromJson(std::string_view json_text);

/// An in-memory checkpoint: the header plus every (heuristic, filter,
/// trial) -> TrialResult record. Later duplicates of a triple win — a
/// re-run after a crash may legitimately append a triple twice.
class CheckpointStore {
 public:
  struct LoadOptions {
    /// Drop a final line that was cut mid-write (no trailing newline and
    /// unparseable) instead of throwing kTruncatedRecord. Resuming after a
    /// SIGKILL re-runs that trial; strict loads surface the damage.
    bool allow_partial_tail = false;
    /// Self-healing load (--resume-salvage): stop at the first physically
    /// damaged line — torn tail, CRC mismatch, malformed or blank record —
    /// keep every record before it, count the rest as dropped_records(),
    /// and truncate the file on disk to the valid prefix so a subsequent
    /// append continues from the last committed trial. A damaged header
    /// salvages to an empty store with header_valid() == false (the writer
    /// then recreates the file). Logical refusals — wrong schema version,
    /// seed/config mismatch, I/O failure — still throw: salvage heals torn
    /// writes, it does not paper over resuming the wrong run.
    bool salvage = false;
  };

  /// Parses `path`. Throws CheckpointError on any problem (see kinds).
  [[nodiscard]] static CheckpointStore Load(const std::string& path,
                                            const LoadOptions& options);
  [[nodiscard]] static CheckpointStore Load(const std::string& path) {
    return Load(path, LoadOptions{});
  }

  [[nodiscard]] const CheckpointHeader& header() const noexcept {
    return header_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return results_.size(); }
  /// True when allow_partial_tail discarded a cut final line.
  [[nodiscard]] bool dropped_partial_tail() const noexcept {
    return dropped_partial_tail_;
  }
  /// Salvage mode: lines discarded (and truncated away) as damaged.
  [[nodiscard]] std::size_t dropped_records() const noexcept {
    return dropped_records_;
  }
  /// False only after a salvage load whose header itself was damaged: the
  /// store holds no trials and header() is meaningless — treat the file as
  /// absent (the writer recreates it).
  [[nodiscard]] bool header_valid() const noexcept { return header_valid_; }

  /// Null when the triple is not checkpointed.
  [[nodiscard]] const TrialResult* Find(std::string_view heuristic,
                                        std::string_view filter_variant,
                                        std::size_t trial_index) const;

 private:
  CheckpointHeader header_;
  std::map<std::tuple<std::string, std::string, std::size_t>, TrialResult>
      results_;
  bool dropped_partial_tail_ = false;
  std::size_t dropped_records_ = 0;
  bool header_valid_ = true;
};

/// Append-only JSONL checkpoint writer, safe to share across the trial
/// fan-out (Append serializes under a mutex and flushes every record).
///
/// Opening an existing non-empty file verifies its header against `header`
/// — schema, seed, and config fingerprint must all match or the writer
/// throws (kSchemaVersion / kConfigMismatch) instead of mixing
/// incompatible results; matching files are appended to. Anything else
/// (missing, empty) is created fresh with a header record.
class CheckpointWriter {
 public:
  CheckpointWriter(const std::string& path, const CheckpointHeader& header);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  void Append(std::string_view heuristic, std::string_view filter_variant,
              std::size_t trial_index, const TrialResult& result);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ecdra::sim
