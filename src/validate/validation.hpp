// Runtime invariant-validation layer (docs/ARCHITECTURE.md, "validate").
//
// A TrialValidator collects invariant checks for one trial: cheap always-on
// checks (event-time monotonicity, energy-budget cutoff) and opt-in deep
// checks (pmf mass conservation after every convolve/truncate/compact,
// queue-model/engine synchronization). Like obs::Counters, instrumentation
// points deep in the stack reach the trial's validator through a
// thread-local pointer installed by ValidatorScope for the duration of
// Engine::Run; with no scope active (the default) every check site is a
// single null-check and the layer costs nothing.
//
// Violations are folded per check name into a ValidationReport attached to
// the TrialResult. Two reporting policies: record-and-continue (sweeps —
// a violating trial is still a data point, flagged in the summary) and
// fail-fast (tests and debugging — the first violation throws
// ValidationError so the stack of the offending operation is preserved).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ecdra::validate {

enum class ValidationMode {
  kOff,    // no validator installed; check sites cost one null-check
  kCheap,  // O(1)-per-event engine checks only
  kDeep,   // cheap checks + per-operation pmf and queue-model audits
};

/// Parses "off" | "cheap" | "deep"; nullopt for anything else.
[[nodiscard]] std::optional<ValidationMode> ParseValidationMode(
    std::string_view name);
[[nodiscard]] std::string_view ValidationModeName(ValidationMode mode);

/// One invariant that failed at least once, folded per check name. `detail`
/// and `sim_time` describe the first occurrence.
struct Violation {
  std::string check;
  std::string detail;
  double sim_time = -1.0;  // simulated time, -1 when not applicable
  std::uint64_t occurrences = 1;

  friend bool operator==(const Violation&, const Violation&) = default;
};

struct ValidationReport {
  ValidationMode mode = ValidationMode::kOff;
  /// Invariant evaluations performed (0 when validation was off).
  std::uint64_t checks_run = 0;
  /// Total violations observed (>= by_check.size(); folded duplicates count).
  std::uint64_t violations = 0;
  std::vector<Violation> by_check;

  [[nodiscard]] bool ok() const noexcept { return violations == 0; }
};

std::ostream& operator<<(std::ostream& os, const ValidationReport& report);

/// Thrown by fail-fast validators at the point of the first violation.
class ValidationError : public std::logic_error {
 public:
  ValidationError(std::string check, const std::string& what_arg)
      : std::logic_error(what_arg), check_(std::move(check)) {}

  [[nodiscard]] const std::string& check() const noexcept { return check_; }

 private:
  std::string check_;
};

class TrialValidator {
 public:
  explicit TrialValidator(ValidationMode mode, bool fail_fast = false)
      : fail_fast_(fail_fast) {
    report_.mode = mode;
  }

  [[nodiscard]] ValidationMode mode() const noexcept { return report_.mode; }
  [[nodiscard]] bool deep() const noexcept {
    return report_.mode == ValidationMode::kDeep;
  }
  [[nodiscard]] bool fail_fast() const noexcept { return fail_fast_; }

  /// Records `n` executed invariant evaluations (call once per check site,
  /// pass or fail).
  void CountChecks(std::uint64_t n = 1) noexcept { report_.checks_run += n; }

  /// Records one violation, folding repeats of the same check name. Throws
  /// ValidationError when fail-fast.
  void Fail(std::string_view check, double sim_time, std::string detail);

  [[nodiscard]] const ValidationReport& report() const noexcept {
    return report_;
  }
  [[nodiscard]] ValidationReport TakeReport() { return std::move(report_); }

 private:
  ValidationReport report_;
  bool fail_fast_ = false;
};

/// The trial's active validator (null when validation is off).
extern constinit thread_local TrialValidator* t_active_validator;

[[nodiscard]] inline TrialValidator* ActiveValidator() noexcept {
  return t_active_validator;
}

/// Non-null only when a validator in deep mode is active — deep check sites
/// guard both the check and the construction of failure details on this.
[[nodiscard]] inline TrialValidator* DeepValidator() noexcept {
  TrialValidator* validator = t_active_validator;
  return (validator != nullptr && validator->deep()) ? validator : nullptr;
}

/// RAII activation of a trial's validator on the current thread. Passing
/// null is a no-op scope (validation off). Scopes nest; the previous
/// pointer is restored on destruction.
class ValidatorScope {
 public:
  explicit ValidatorScope(TrialValidator* validator) noexcept
      : previous_(t_active_validator) {
    if (validator != nullptr) t_active_validator = validator;
  }
  ~ValidatorScope() { t_active_validator = previous_; }

  ValidatorScope(const ValidatorScope&) = delete;
  ValidatorScope& operator=(const ValidatorScope&) = delete;

 private:
  TrialValidator* previous_;
};

}  // namespace ecdra::validate
