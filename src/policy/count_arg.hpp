// A count argument of a command-line main, such as the trial count of the
// bench mains and examples (`<main> [TRIALS] ...`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "policy/scenario_spec.hpp"

namespace ecdra::policy {

/// argv[index] as a count >= `minimum`, or `fallback` when it is absent. A
/// bad value prints one stderr line naming the argument (`name`) and exits
/// 2, as bench/ablation does.
inline std::size_t CountArg(int argc, char** argv, int index, const char* name,
                            std::uint64_t minimum, std::size_t fallback) {
  if (argc <= index) return fallback;
  std::string error = "must be >= " + std::to_string(minimum);
  try {
    const std::uint64_t count = ParseSpecCount(argv[index]);
    if (count >= minimum) return static_cast<std::size_t>(count);
  } catch (const std::invalid_argument& invalid) {
    error = invalid.what();
  }
  std::cerr << argv[0] << ": " << name << ": " << error << "\n";
  std::exit(2);
}

}  // namespace ecdra::policy
