#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace ecdra::util {
namespace {

TEST(SplitMix64, IsDeterministicAndScrambles) {
  EXPECT_EQ(SplitMix64(1), SplitMix64(1));
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
  EXPECT_NE(SplitMix64(0), 0u);
}

TEST(HashName, DistinguishesNames) {
  EXPECT_EQ(HashName("arrivals"), HashName("arrivals"));
  EXPECT_NE(HashName("arrivals"), HashName("types"));
  EXPECT_NE(HashName(""), HashName("a"));
}

TEST(RngStream, SameSeedSameSequence) {
  RngStream a(42);
  RngStream b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.UniformReal(0, 1), b.UniformReal(0, 1));
  }
}

TEST(RngStream, DifferentSeedsDiffer) {
  RngStream a(1);
  RngStream b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformReal(0, 1) == b.UniformReal(0, 1)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngStream, SubstreamIndependentOfDrawCount) {
  RngStream a(7);
  RngStream b(7);
  (void)b.UniformReal(0, 1);  // advance b's own state
  RngStream sub_a = a.Substream("x", 3);
  RngStream sub_b = b.Substream("x", 3);
  EXPECT_DOUBLE_EQ(sub_a.UniformReal(0, 1), sub_b.UniformReal(0, 1));
}

TEST(RngStream, SubstreamsDifferByNameAndIndex) {
  RngStream root(9);
  RngStream by_name_1 = root.Substream("a", 0);
  RngStream by_name_2 = root.Substream("b", 0);
  RngStream by_index = root.Substream("a", 1);
  const double v1 = by_name_1.UniformReal(0, 1);
  EXPECT_NE(v1, by_name_2.UniformReal(0, 1));
  EXPECT_NE(v1, by_index.UniformReal(0, 1));
}

TEST(RngStream, UniformRealRespectsBounds) {
  RngStream rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformReal(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngStream, UniformIntCoversClosedRange) {
  RngStream rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values of a small range appear
}

TEST(RngStream, ExponentialHasRequestedMean) {
  RngStream rng(11);
  const double rate = 0.125;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.2 / rate);
}

TEST(RngStream, GammaHasRequestedMoments) {
  RngStream rng(13);
  const double shape = 16.0;
  const double scale = 750.0 / 16.0;
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gamma(shape, scale);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, shape * scale, 0.02 * shape * scale);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0 / std::sqrt(shape), 0.02);
}

TEST(RngStream, DiscreteFollowsWeights) {
  RngStream rng(17);
  const std::vector<double> weights{1.0, 3.0};
  int ones = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const std::size_t v = rng.Discrete(weights);
    ASSERT_LT(v, 2u);
    ones += v == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.03);
}

TEST(Mt19937_64FirstOutput, MatchesTheStandardEngine) {
  // std::mt19937_64 default-seeded (5489) starts with this output.
  static_assert(Mt19937_64FirstOutput(5489) == 14514284786278117030ULL);
  std::vector<std::uint64_t> seeds{0,
                                   1,
                                   5489,
                                   std::uint64_t{1} << 63,
                                   ~std::uint64_t{0}};
  std::uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) seeds.push_back(x = SplitMix64(x));
  std::size_t mismatches = 0;
  for (const std::uint64_t seed : seeds) {
    std::mt19937_64 engine(seed);
    if (Mt19937_64FirstOutput(seed) != engine()) {
      if (mismatches++ == 0) ADD_FAILURE() << "first mismatch at seed " << seed;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(RngStream, SubstreamFirstUniformIsTheSubstreamsFirstDraw) {
  const RngStream root(14);
  std::size_t mismatches = 0;
  for (std::uint64_t index = 0; index < 100000; ++index) {
    const double fast = root.SubstreamFirstUniform("exec-u", index);
    const double full = root.Substream("exec-u", index).UniformReal(0.0, 1.0);
    if (fast != full) {
      if (mismatches++ == 0) ADD_FAILURE() << "first mismatch at " << index;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(RngStream(3).SubstreamFirstUniform("x"),
            RngStream(3).Substream("x").UniformReal(0.0, 1.0));
}

TEST(RngStream, SubstreamFirstUniformsAreTheOneAtATimeDraws) {
  // Lengths around the eight-lane block (none, a tail alone, one block, a
  // block and a tail) and a long run, under several seeds and names.
  for (const std::uint64_t seed : {0ULL, 3ULL, 14ULL, ~0ULL}) {
    const RngStream root(seed);
    for (const char* name : {"exec-u", "power-u"}) {
      for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 1000u}) {
        std::vector<double> draws(n, -1.0);
        root.SubstreamFirstUniforms(name, draws);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(draws[i], root.SubstreamFirstUniform(name, i))
              << "seed " << seed << ", " << name << ", n " << n << ", i "
              << i;
        }
      }
    }
  }
}

TEST(RngStream, InvalidArgumentsThrow) {
  RngStream rng(1);
  EXPECT_THROW((void)rng.UniformReal(2, 1), std::invalid_argument);
  EXPECT_THROW((void)rng.UniformInt(2, 1), std::invalid_argument);
  EXPECT_THROW((void)rng.Exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.Gamma(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.Gamma(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.Discrete({}), std::invalid_argument);
}

}  // namespace
}  // namespace ecdra::util
