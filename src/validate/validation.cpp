#include "validate/validation.hpp"

#include <ostream>
#include <sstream>

namespace ecdra::validate {

constinit thread_local TrialValidator* t_active_validator = nullptr;

std::optional<ValidationMode> ParseValidationMode(std::string_view name) {
  if (name == "off") return ValidationMode::kOff;
  if (name == "cheap") return ValidationMode::kCheap;
  if (name == "deep") return ValidationMode::kDeep;
  return std::nullopt;
}

std::string_view ValidationModeName(ValidationMode mode) {
  switch (mode) {
    case ValidationMode::kOff: return "off";
    case ValidationMode::kCheap: return "cheap";
    case ValidationMode::kDeep: return "deep";
  }
  return "unknown";
}

void TrialValidator::Fail(std::string_view check, double sim_time,
                          std::string detail) {
  ++report_.violations;
  bool folded = false;
  for (Violation& violation : report_.by_check) {
    if (violation.check == check) {
      ++violation.occurrences;
      folded = true;
      break;
    }
  }
  if (!folded) {
    report_.by_check.push_back(
        Violation{std::string(check), detail, sim_time, 1});
  }
  if (fail_fast_) {
    std::ostringstream os;
    os << "validation check '" << check << "' failed";
    if (sim_time >= 0.0) os << " at t=" << sim_time;
    if (!detail.empty()) os << ": " << detail;
    throw ValidationError(std::string(check), os.str());
  }
}

std::ostream& operator<<(std::ostream& os, const ValidationReport& report) {
  os << "ValidationReport{mode=" << ValidationModeName(report.mode)
     << ", checks=" << report.checks_run
     << ", violations=" << report.violations;
  for (const Violation& violation : report.by_check) {
    os << ", " << violation.check << " x" << violation.occurrences;
    if (!violation.detail.empty()) os << " (" << violation.detail << ")";
  }
  return os << "}";
}

}  // namespace ecdra::validate
