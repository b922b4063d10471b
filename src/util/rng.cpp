#include "util/rng.hpp"

#include "util/assert.hpp"

namespace ecdra::util {

namespace {

/// A URBG with std::mt19937_64's range that hands out one precomputed
/// output. libstdc++'s generate_canonical<double, 53> calls a 64-bit
/// generator exactly once, so the distribution below runs the same
/// conversion code UniformReal runs on a full engine.
class OneShotMt64 {
 public:
  using result_type = std::mt19937_64::result_type;

  explicit OneShotMt64(result_type value) noexcept : value_(value) {}

  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

  result_type operator()() {
    ECDRA_ASSERT(!used_, "one-shot generator called twice");
    used_ = true;
    return value_;
  }

 private:
  result_type value_;
  bool used_ = false;
};

/// UniformReal(0.0, 1.0) on an engine whose next output is `output`.
double UnitUniform(std::uint64_t output) {
  OneShotMt64 first(output);
  return std::uniform_real_distribution<double>(0.0, 1.0)(first);
}

}  // namespace

double RngStream::SubstreamFirstUniform(std::string_view name,
                                        std::uint64_t index) const {
  // A child stream seeds its engine with SplitMix64 of its own seed.
  return UnitUniform(
      Mt19937_64FirstOutput(SplitMix64(ChildSeed(name, index))));
}

void RngStream::SubstreamFirstUniforms(std::string_view name,
                                       std::span<double> out) const {
  constexpr std::size_t kLanes = 8;
  const std::size_t n = out.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    std::uint64_t x0[kLanes];
    std::uint64_t x1[kLanes];
    std::uint64_t xm[kLanes];
    for (std::size_t k = 0; k < kLanes; ++k) {
      x0[k] = SplitMix64(ChildSeed(name, i + k));
      x1[k] = Mt19937_64SeedStep(x0[k], 1);
      xm[k] = x1[k];
    }
    for (std::uint64_t step = 2; step <= 156; ++step) {
      for (std::size_t k = 0; k < kLanes; ++k) {
        xm[k] = Mt19937_64SeedStep(xm[k], step);
      }
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      out[i + k] = UnitUniform(Mt19937_64TwistFirst(x0[k], x1[k], xm[k]));
    }
  }
  for (; i < n; ++i) out[i] = SubstreamFirstUniform(name, i);
}

double RngStream::UniformReal(double lo, double hi) {
  ECDRA_REQUIRE(lo <= hi, "uniform real bounds out of order");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t RngStream::UniformInt(std::int64_t lo, std::int64_t hi) {
  ECDRA_REQUIRE(lo <= hi, "uniform int bounds out of order");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double RngStream::Exponential(double rate) {
  ECDRA_REQUIRE(rate > 0.0, "exponential rate must be positive");
  return std::exponential_distribution<double>(rate)(engine_);
}

double RngStream::Gamma(double shape, double scale) {
  ECDRA_REQUIRE(shape > 0.0 && scale > 0.0,
                "gamma shape and scale must be positive");
  return std::gamma_distribution<double>(shape, scale)(engine_);
}

std::size_t RngStream::Discrete(const std::vector<double>& weights) {
  ECDRA_REQUIRE(!weights.empty(), "discrete distribution needs weights");
  std::discrete_distribution<std::size_t> dist(weights.begin(), weights.end());
  return dist(engine_);
}

}  // namespace ecdra::util
