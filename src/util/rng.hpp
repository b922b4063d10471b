// Deterministic random-number streams.
//
// Every stochastic quantity in the simulator (cluster generation, workload
// generation, actual execution-time sampling, heuristic tie-breaking) draws
// from its own named substream derived from a single master seed, so results
// are bit-reproducible regardless of evaluation order or trial-level
// parallelism.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

namespace ecdra::util {

/// SplitMix64 step — used both as a seed scrambler and a cheap hash.
[[nodiscard]] constexpr std::uint64_t SplitMix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a hash of a string, for deriving substream identifiers from names.
[[nodiscard]] constexpr std::uint64_t HashName(std::string_view name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// std::mt19937_64's seeding step: state word i from word i - 1.
[[nodiscard]] constexpr std::uint64_t Mt19937_64SeedStep(
    std::uint64_t x, std::uint64_t i) noexcept {
  return 6364136223846793005ULL * (x ^ (x >> 62)) + i;
}

/// std::mt19937_64's first output from its seeded state words 0, 1 and 156:
/// twist word 0, then temper it.
[[nodiscard]] constexpr std::uint64_t Mt19937_64TwistFirst(
    std::uint64_t x0, std::uint64_t x1, std::uint64_t x156) noexcept {
  const std::uint64_t y =
      (x0 & ~((1ULL << 31) - 1)) | (x1 & ((1ULL << 31) - 1));
  std::uint64_t z =
      x156 ^ (y >> 1) ^ ((y & 1) != 0 ? 0xB5026F5AA96619E9ULL : 0);
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  return z ^ (z >> 43);
}

/// The first output of std::mt19937_64 seeded with `seed`, computed without
/// building the 312-word state. That output reads only state words 0, 1 and
/// 156: seed them, twist word 0 and temper it. Bit-identical to
/// `std::mt19937_64(seed)()`.
[[nodiscard]] constexpr std::uint64_t Mt19937_64FirstOutput(
    std::uint64_t seed) noexcept {
  const std::uint64_t x1 = Mt19937_64SeedStep(seed, 1);
  std::uint64_t xm = x1;
  for (std::uint64_t i = 2; i <= 156; ++i) xm = Mt19937_64SeedStep(xm, i);
  return Mt19937_64TwistFirst(seed, x1, xm);
}

/// A seeded random stream with convenience samplers. Thin wrapper around
/// std::mt19937_64; cheap to construct, movable, never shared across threads.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed)
      : base_seed_(seed), engine_(SplitMix64(seed)) {}

  /// Derives an independent child stream; `name` identifies the purpose
  /// (e.g. "arrivals"), `index` distinguishes repeats (e.g. trial number).
  /// Derivation depends only on (seed, name, index), never on how many
  /// variates were already drawn from this stream.
  [[nodiscard]] RngStream Substream(std::string_view name,
                                    std::uint64_t index = 0) const {
    return RngStream(ChildSeed(name, index));
  }

  /// `Substream(name, index).UniformReal(0.0, 1.0)`, bit for bit, from one
  /// Mersenne Twister output instead of a seeded 312-word engine.
  [[nodiscard]] double SubstreamFirstUniform(std::string_view name,
                                             std::uint64_t index = 0) const;

  /// Fills out[i] with SubstreamFirstUniform(name, i), bit for bit, for
  /// every i. Each draw is a 155-step dependent multiply chain; eight
  /// chains run side by side, so the multiplies overlap.
  void SubstreamFirstUniforms(std::string_view name,
                              std::span<double> out) const;

  [[nodiscard]] std::uint64_t base_seed() const noexcept { return base_seed_; }

  [[nodiscard]] double UniformReal(double lo, double hi);
  /// Uniform integer on the closed interval [lo, hi].
  [[nodiscard]] std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);
  /// Exponential inter-arrival gap with the given rate (mean 1/rate).
  [[nodiscard]] double Exponential(double rate);
  /// Gamma variate with the given shape and scale (mean = shape*scale).
  [[nodiscard]] double Gamma(double shape, double scale);
  /// Samples an index from an explicit discrete distribution; `weights`
  /// need not be normalized.
  [[nodiscard]] std::size_t Discrete(const std::vector<double>& weights);

  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

 private:
  [[nodiscard]] std::uint64_t ChildSeed(std::string_view name,
                                        std::uint64_t index) const noexcept {
    return SplitMix64(base_seed_ ^ HashName(name)) ^ SplitMix64(index + 1);
  }

  std::uint64_t base_seed_;
  std::mt19937_64 engine_;
};

}  // namespace ecdra::util
