// The trial-count argument the bench mains share: `<main> [TRIALS] ...`.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "policy/scenario_spec.hpp"

namespace ecdra::bench {

/// argv[1] as a trial count >= 1, or `fallback` when it is absent. A bad
/// count prints one stderr line and exits 2, as bench/ablation does.
inline std::size_t TrialsArg(int argc, char** argv, std::size_t fallback) {
  if (argc < 2) return fallback;
  std::string error = "must be >= 1";
  try {
    const std::uint64_t trials = policy::ParseSpecCount(argv[1]);
    if (trials >= 1) return static_cast<std::size_t>(trials);
  } catch (const std::invalid_argument& invalid) {
    error = invalid.what();
  }
  std::cerr << argv[0] << ": TRIALS: " << error << "\n";
  std::exit(2);
}

}  // namespace ecdra::bench
