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

}  // namespace

double RngStream::SubstreamFirstUniform(std::string_view name,
                                        std::uint64_t index) const {
  // A child stream seeds its engine with SplitMix64 of its own seed.
  OneShotMt64 first(Mt19937_64FirstOutput(SplitMix64(ChildSeed(name, index))));
  return std::uniform_real_distribution<double>(0.0, 1.0)(first);
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
