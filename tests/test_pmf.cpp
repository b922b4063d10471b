#include "pmf/pmf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pmf/distribution_factory.hpp"
#include "util/rng.hpp"
#include "validate/validation.hpp"

namespace ecdra::pmf {
namespace {

Pmf RandomPmf(util::RngStream& rng, std::size_t n) {
  std::vector<Impulse> impulses;
  impulses.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    impulses.push_back(
        Impulse{rng.UniformReal(0.0, 100.0), rng.UniformReal(0.01, 1.0)});
  }
  return Pmf::FromImpulses(std::move(impulses), n);
}

double Mass(const Pmf& pmf) {
  double mass = 0.0;
  for (const Impulse& imp : pmf.impulses()) mass += imp.prob;
  return mass;
}

TEST(Pmf, DeltaIsDegenerate) {
  const Pmf d = Pmf::Delta(5.0);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.Expectation(), 5.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(d.Min(), 5.0);
  EXPECT_DOUBLE_EQ(d.Max(), 5.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(4.999), 0.0);
  EXPECT_DOUBLE_EQ(d.CdfAt(5.0), 1.0);
}

TEST(Pmf, FromImpulsesSortsMergesNormalizes) {
  const Pmf pmf = Pmf::FromImpulses({{3.0, 2.0}, {1.0, 1.0}, {3.0, 1.0}});
  ASSERT_EQ(pmf.size(), 2u);
  EXPECT_DOUBLE_EQ(pmf.impulses()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(pmf.impulses()[0].prob, 0.25);
  EXPECT_DOUBLE_EQ(pmf.impulses()[1].value, 3.0);
  EXPECT_DOUBLE_EQ(pmf.impulses()[1].prob, 0.75);
}

TEST(Pmf, FromImpulsesDropsNonPositiveProbabilities) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 0.0}, {2.0, 1.0}, {3.0, -0.5}});
  ASSERT_EQ(pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(pmf.impulses()[0].value, 2.0);
}

TEST(Pmf, FromImpulsesRejectsEmptyAndNonFinite) {
  EXPECT_THROW((void)Pmf::FromImpulses({}), std::invalid_argument);
  EXPECT_THROW((void)Pmf::FromImpulses({{1.0, 0.0}}), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)Pmf::FromImpulses({{inf, 1.0}}), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)Pmf::FromImpulses({{1.0, nan}}), std::invalid_argument);
}

TEST(Pmf, ExpectationAndVariance) {
  const Pmf pmf = Pmf::FromImpulses({{0.0, 1.0}, {10.0, 1.0}});
  EXPECT_DOUBLE_EQ(pmf.Expectation(), 5.0);
  EXPECT_DOUBLE_EQ(pmf.Variance(), 25.0);
}

TEST(Pmf, CdfAtIsRightContinuousStep) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(pmf.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(pmf.CdfAt(1.0), 0.25);
  EXPECT_DOUBLE_EQ(pmf.CdfAt(1.5), 0.25);
  EXPECT_DOUBLE_EQ(pmf.CdfAt(2.0), 0.5);
  EXPECT_DOUBLE_EQ(pmf.CdfAt(3.0), 1.0);
  EXPECT_DOUBLE_EQ(pmf.CdfAt(99.0), 1.0);
}

TEST(Pmf, ShiftMovesSupportOnly) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 3.0}});
  const Pmf shifted = pmf.Shift(10.0);
  EXPECT_DOUBLE_EQ(shifted.Expectation(), pmf.Expectation() + 10.0);
  EXPECT_NEAR(shifted.Variance(), pmf.Variance(), 1e-12);
  EXPECT_DOUBLE_EQ(shifted.Min(), 11.0);
}

TEST(Pmf, ScaleValuesScalesMoments) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 3.0}});
  const Pmf scaled = pmf.ScaleValues(2.0);
  EXPECT_DOUBLE_EQ(scaled.Expectation(), 2.0 * pmf.Expectation());
  EXPECT_NEAR(scaled.Variance(), 4.0 * pmf.Variance(), 1e-12);
  EXPECT_THROW((void)pmf.ScaleValues(0.0), std::invalid_argument);
}

TEST(Pmf, TruncateBelowRenormalizes) {
  const Pmf pmf =
      Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}, {3.0, 1.0}, {4.0, 1.0}});
  const TruncateResult result = pmf.TruncateBelow(2.5);
  EXPECT_DOUBLE_EQ(result.retained_mass, 0.5);
  ASSERT_EQ(result.pmf.size(), 2u);
  EXPECT_DOUBLE_EQ(result.pmf.impulses()[0].prob, 0.5);
  EXPECT_NEAR(Mass(result.pmf), 1.0, 1e-12);
}

TEST(Pmf, TruncateBelowKeepsImpulsesAtExactlyT) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  const TruncateResult result = pmf.TruncateBelow(2.0);
  EXPECT_DOUBLE_EQ(result.retained_mass, 0.5);
  EXPECT_DOUBLE_EQ(result.pmf.Min(), 2.0);
}

TEST(Pmf, TruncateBelowPastEverythingYieldsImminentDelta) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  const TruncateResult result = pmf.TruncateBelow(50.0);
  EXPECT_DOUBLE_EQ(result.retained_mass, 0.0);
  EXPECT_EQ(result.pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(result.pmf.Expectation(), 50.0);
}

TEST(Pmf, TruncateBelowAtToleranceEdgeReportsTrueRetainedMass) {
  // The surviving mass is positive but at most kMassTolerance: the result
  // falls back to Delta(t) (renormalizing ~1e-10 of mass is meaningless),
  // but retained_mass must report the true tiny sum — the pre-fix code
  // returned 0.0, telling `retained_mass > 0` callers that no mass ever
  // existed past the cut.
  const double tiny = 0.5 * Pmf::kMassTolerance;
  const Pmf pmf = Pmf::FromRawUnchecked({{1.0, 1.0 - tiny}, {2.0, tiny}});
  const TruncateResult result = pmf.TruncateBelow(1.5);
  ASSERT_EQ(result.pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(result.pmf.impulses()[0].value, 1.5);
  EXPECT_DOUBLE_EQ(result.pmf.impulses()[0].prob, 1.0);
  EXPECT_GT(result.retained_mass, 0.0);
  EXPECT_DOUBLE_EQ(result.retained_mass, tiny);
}

TEST(Pmf, ShiftRecoalescesValuesCollapsedByAbsorption) {
  // A gap of 2^-30 between support values is far below the ulp of 1e10 + 1,
  // so shifting by 1e10 absorbs it: both values land on the same double.
  // Pre-fix, Shift kept both impulses, breaking the strictly-increasing
  // support invariant every other constructor guarantees.
  const double gap = std::ldexp(1.0, -30);
  const Pmf pmf = Pmf::FromImpulses({{1.0, 0.25}, {1.0 + gap, 0.75}});
  ASSERT_EQ(pmf.size(), 2u);
  const Pmf shifted = pmf.Shift(1e10);
  ASSERT_EQ(shifted.size(), 1u);
  EXPECT_DOUBLE_EQ(shifted.impulses()[0].value, 1e10 + 1.0);
  EXPECT_DOUBLE_EQ(shifted.impulses()[0].prob, 1.0);
}

TEST(Pmf, ScaleValuesRecoalescesValuesCollapsedByRounding) {
  // Adjacent doubles scaled to the smallest subnormal both round to the
  // same value; the products must coalesce into one impulse.
  const double gap = std::ldexp(1.0, -52);
  const Pmf pmf = Pmf::FromImpulses({{1.0, 0.5}, {1.0 + gap, 0.5}});
  ASSERT_EQ(pmf.size(), 2u);
  const Pmf scaled = pmf.ScaleValues(std::ldexp(1.0, -1074));
  ASSERT_EQ(scaled.size(), 1u);
  EXPECT_DOUBLE_EQ(scaled.impulses()[0].prob, 1.0);
}

TEST(Pmf, ShiftAndScaleValuesRunTheDeepAudit) {
  // Shift/ScaleValues used to skip the deep-validation hook every other
  // pmf constructor runs; both must now report checks to an active deep
  // validator.
  validate::TrialValidator validator(validate::ValidationMode::kDeep);
  {
    validate::ValidatorScope scope(&validator);
    const Pmf pmf = Pmf::FromImpulses({{1.0, 0.5}, {2.0, 0.5}});
    const auto before_shift = validator.report().checks_run;
    (void)pmf.Shift(3.0);
    const auto after_shift = validator.report().checks_run;
    EXPECT_GT(after_shift, before_shift);
    (void)pmf.ScaleValues(2.0);
    EXPECT_GT(validator.report().checks_run, after_shift);
  }
  EXPECT_TRUE(validator.report().ok());
}

TEST(Pmf, InPlaceVariantsMatchConstOverloads) {
  util::RngStream rng(99);
  for (int i = 0; i < 20; ++i) {
    const Pmf pmf = RandomPmf(rng, 16);
    Pmf shifted = pmf;
    shifted.ShiftInPlace(12.5);
    EXPECT_EQ(shifted, pmf.Shift(12.5));
    Pmf scaled = pmf;
    scaled.ScaleValuesInPlace(1.375);
    EXPECT_EQ(scaled, pmf.ScaleValues(1.375));
    Pmf truncated = pmf;
    const double cut = pmf.impulses()[pmf.size() / 2].value;
    const double retained = truncated.TruncateBelowInPlace(cut);
    const TruncateResult reference = pmf.TruncateBelow(cut);
    EXPECT_EQ(truncated, reference.pmf);
    EXPECT_DOUBLE_EQ(retained, reference.retained_mass);
  }
}

TEST(Pmf, SampleStaysOnSupportAndFollowsProbabilities) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 0.2}, {5.0, 0.8}});
  util::RngStream rng(123);
  int fives = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double v = pmf.Sample(rng.UniformReal(0.0, 1.0));
    ASSERT_TRUE(v == 1.0 || v == 5.0);
    if (v == 5.0) ++fives;
  }
  EXPECT_NEAR(static_cast<double>(fives) / n, 0.8, 0.02);
}

TEST(Pmf, CompactPreservesMassAndMean) {
  util::RngStream rng(7);
  const Pmf pmf = RandomPmf(rng, 256);
  const Pmf compact = pmf.Compact(16);
  EXPECT_LE(compact.size(), 16u);
  EXPECT_NEAR(Mass(compact), 1.0, 1e-12);
  EXPECT_NEAR(compact.Expectation(), pmf.Expectation(), 1e-9);
  EXPECT_DOUBLE_EQ(compact.Min() >= pmf.Min() ? 1.0 : 0.0, 1.0);
  EXPECT_LE(compact.Max(), pmf.Max());
}

TEST(Pmf, CompactIsNoOpWhenSmallEnough) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  EXPECT_EQ(pmf.Compact(10), pmf);
}

TEST(Pmf, CompactToOneImpulseGivesMean) {
  util::RngStream rng(9);
  const Pmf pmf = RandomPmf(rng, 32);
  const Pmf one = pmf.Compact(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_NEAR(one.Expectation(), pmf.Expectation(), 1e-9);
}

class CompactSweep : public ::testing::TestWithParam<
                         std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(CompactSweep, BoundMassAndMeanHoldForAllSizes) {
  const auto [seed, bound] = GetParam();
  util::RngStream rng(seed);
  const Pmf pmf = RandomPmf(rng, 200);
  const Pmf compact = pmf.Compact(bound);
  EXPECT_LE(compact.size(), bound);
  EXPECT_NEAR(Mass(compact), 1.0, 1e-12);
  EXPECT_NEAR(compact.Expectation(), pmf.Expectation(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBounds, CompactSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(1u, 2u, 7u, 32u, 64u, 199u)));

TEST(Convolve, DeltaIsIdentity) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {4.0, 1.0}});
  const Pmf conv = Convolve(pmf, Pmf::Delta(0.0));
  EXPECT_EQ(conv, pmf);
}

TEST(Convolve, DeltaShifts) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {4.0, 1.0}});
  const Pmf conv = Convolve(pmf, Pmf::Delta(2.5));
  EXPECT_DOUBLE_EQ(conv.Min(), 3.5);
  EXPECT_DOUBLE_EQ(conv.Max(), 6.5);
}

TEST(Convolve, TwoCoinsGiveBinomial) {
  const Pmf coin = Pmf::FromImpulses({{0.0, 0.5}, {1.0, 0.5}});
  const Pmf sum = Convolve(coin, coin);
  ASSERT_EQ(sum.size(), 3u);
  EXPECT_DOUBLE_EQ(sum.impulses()[0].prob, 0.25);
  EXPECT_DOUBLE_EQ(sum.impulses()[1].prob, 0.5);
  EXPECT_DOUBLE_EQ(sum.impulses()[2].prob, 0.25);
}

class ConvolveProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvolveProperties, MomentsAddAndSupportBounds) {
  util::RngStream rng(GetParam());
  const Pmf x = RandomPmf(rng, 24);
  const Pmf y = RandomPmf(rng, 24);
  // Exact convolution (no compaction).
  const Pmf exact = Convolve(x, y, 24 * 24);
  EXPECT_NEAR(exact.Expectation(), x.Expectation() + y.Expectation(), 1e-9);
  EXPECT_NEAR(exact.Variance(), x.Variance() + y.Variance(), 1e-6);
  EXPECT_NEAR(exact.Min(), x.Min() + y.Min(), 1e-9);
  EXPECT_NEAR(exact.Max(), x.Max() + y.Max(), 1e-9);
  EXPECT_NEAR(Mass(exact), 1.0, 1e-9);
  // Compacted convolution preserves mass and mean.
  const Pmf compacted = Convolve(x, y, 32);
  EXPECT_LE(compacted.size(), 32u);
  EXPECT_NEAR(compacted.Expectation(), exact.Expectation(), 1e-9);
}

TEST_P(ConvolveProperties, ProbSumLeqMatchesExactConvolutionCdf) {
  util::RngStream rng(GetParam() + 1000);
  const Pmf x = RandomPmf(rng, 20);
  const Pmf y = RandomPmf(rng, 20);
  const Pmf exact = Convolve(x, y, 20 * 20);
  for (const double t : {-5.0, 20.0, 50.0, 80.0, 110.0, 150.0, 250.0}) {
    EXPECT_NEAR(ProbSumLeq(x, y, t), exact.CdfAt(t), 1e-9) << "t=" << t;
  }
}

TEST_P(ConvolveProperties, ProbSumLeqIsSymmetric) {
  util::RngStream rng(GetParam() + 2000);
  const Pmf x = RandomPmf(rng, 15);
  const Pmf y = RandomPmf(rng, 17);
  for (const double t : {30.0, 90.0, 140.0}) {
    EXPECT_NEAR(ProbSumLeq(x, y, t), ProbSumLeq(y, x, t), 1e-9);
  }
}

/// Integer-valued random pmf: sums and differences of support values are
/// exact in floating point, so threshold ties are unambiguous.
Pmf IntegerRandomPmf(util::RngStream& rng, std::size_t n) {
  std::vector<Impulse> impulses;
  impulses.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    impulses.push_back(Impulse{std::floor(rng.UniformReal(0.0, 200.0)),
                               rng.UniformReal(0.01, 1.0)});
  }
  return Pmf::FromImpulses(std::move(impulses), n);
}

TEST_P(ConvolveProperties, ProbSumLeqMatchesBruteForceAtTieBoundaries) {
  // Every pair sum x_i + y_j is a threshold where t - x_i lands exactly on
  // a support value of Y — the boundary the two-pointer sweep must resolve
  // with <=, not <. Integer supports make the tie exact; half-integer
  // probes check strictly-between thresholds on both sides.
  util::RngStream rng(GetParam() + 3000);
  const Pmf x = IntegerRandomPmf(rng, 12);
  const Pmf y = IntegerRandomPmf(rng, 12);
  const Pmf exact = Convolve(x, y, 1u << 20);  // brute force: nothing merged
  for (const Impulse& xi : x.impulses()) {
    for (const Impulse& yj : y.impulses()) {
      const double t = xi.value + yj.value;
      EXPECT_NEAR(ProbSumLeq(x, y, t), exact.CdfAt(t), 1e-12) << "t=" << t;
      EXPECT_NEAR(ProbSumLeq(x, y, t - 0.5), exact.CdfAt(t - 0.5), 1e-12)
          << "t=" << t - 0.5;
      EXPECT_NEAR(ProbSumLeq(x, y, t + 0.5), exact.CdfAt(t + 0.5), 1e-12)
          << "t=" << t + 0.5;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvolveProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Convolve, ConvolveIntoMatchesConvolveAndAllowsAliasing) {
  util::RngStream rng(321);
  const Pmf x = RandomPmf(rng, 24);
  const Pmf y = RandomPmf(rng, 24);
  const Pmf reference = Convolve(x, y);
  Pmf out;
  ConvolveInto(x, y, Pmf::kDefaultMaxImpulses, out);
  EXPECT_EQ(out, reference);
  // `out` aliasing either input is the documented suffix-chain idiom.
  Pmf acc = x;
  ConvolveInto(acc, y, Pmf::kDefaultMaxImpulses, acc);
  EXPECT_EQ(acc, reference);
  Pmf acc_rhs = y;
  ConvolveInto(x, acc_rhs, Pmf::kDefaultMaxImpulses, acc_rhs);
  EXPECT_EQ(acc_rhs, reference);
}

TEST(Convolve, KWayMergeMatchesSortBasedCrossProduct) {
  // The fused kernel must reproduce FromImpulses' sort-everything result
  // exactly: same merged support, same normalized probabilities.
  util::RngStream rng(555);
  for (int trial = 0; trial < 10; ++trial) {
    const Pmf x = RandomPmf(rng, 9);
    const Pmf y = RandomPmf(rng, 13);
    std::vector<Impulse> cross;
    for (const Impulse& xi : x.impulses()) {
      for (const Impulse& yj : y.impulses()) {
        cross.push_back(Impulse{xi.value + yj.value, xi.prob * yj.prob});
      }
    }
    const Pmf via_sort = Pmf::FromImpulses(std::move(cross), 32);
    EXPECT_EQ(Convolve(x, y, 32), via_sort);
  }
}

TEST(Convolve, TwoPointChainsKeepTheSupportStrictlyIncreasing) {
  // Chains over a pool of three two-point pmfs add the same values in
  // different orders, so their cross products hold clusters of sums one
  // ulp apart. When fewer than 31 gaps are wider than that, a compaction
  // boundary falls on a one-ulp gap, and a run of one impulse, merged to
  // (q·v)/q, can round onto or past its neighbour. Such an impulse must
  // join its neighbour: every result keeps a strictly increasing support
  // and passes the deep audit.
  validate::TrialValidator validator(validate::ValidationMode::kDeep);
  std::size_t convolutions = 0;
  {
    const validate::ValidatorScope scope(&validator);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      util::RngStream rng(seed);
      const auto two_point = [&rng] {
        return Pmf::FromImpulses(
            {{rng.UniformReal(10.0, 20.0), rng.UniformReal(0.01, 1.0)},
             {rng.UniformReal(10.0, 20.0), rng.UniformReal(0.01, 1.0)}});
      };
      const Pmf pool[] = {two_point(), two_point(), two_point()};
      for (int chain = 0; chain < 38; ++chain) {
        Pmf acc = pool[rng.UniformInt(0, 2)];
        for (int depth = 0; depth < 12; ++depth) {
          const Pmf& next = pool[rng.UniformInt(0, 2)];
          ConvolveInto(acc, next, Pmf::kDefaultMaxImpulses, acc);
          ++convolutions;
          const auto impulses = acc.impulses();
          for (std::size_t i = 1; i < impulses.size(); ++i) {
            ASSERT_LT(impulses[i - 1].value, impulses[i].value)
                << "seed " << seed << " chain " << chain << " depth "
                << depth << " impulse " << i;
          }
        }
      }
    }
  }
  EXPECT_EQ(convolutions, 4560u);
  EXPECT_TRUE(validator.report().ok()) << validator.report();
}

TEST(Convolve, OverflowingSumsThrow) {
  // Sums past the largest double overflow to +inf, and inf - inf is a NaN
  // gap that compaction must never rank.
  util::RngStream rng(31);
  const auto huge = [&rng](std::size_t n) {
    std::vector<Impulse> impulses;
    for (std::size_t i = 0; i < n; ++i) {
      impulses.push_back(
          Impulse{rng.UniformReal(0.5e308, 1.5e308), rng.UniformReal(0.01, 1.0)});
    }
    return Pmf::FromImpulses(std::move(impulses), n);
  };
  const Pmf x = huge(24);
  const Pmf y = huge(32);
  for (const std::size_t m : {1u, 2u, 32u, 1u << 20}) {
    EXPECT_THROW((void)Convolve(x, y, m), std::invalid_argument) << "m " << m;
  }
}

// -- Compaction boundaries against an independent reference --

/// Reference compaction: ranks every gap by a full sort on (gap descending,
/// index ascending), keeps the m - 1 strongest as run boundaries and folds
/// each run left to right as MergeRun does, joining a merged impulse that
/// does not lie above the one before it. `sorted` holds normalized
/// impulses in ascending value order.
std::vector<Impulse> ReferenceCompact(std::vector<Impulse> sorted,
                                      std::size_t m) {
  const std::size_t n = sorted.size();
  if (n <= m) return sorted;
  const auto gap = [&sorted](std::size_t i) {
    return sorted[i + 1].value - sorted[i].value;
  };
  std::vector<std::size_t> order(n - 1);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&gap](std::size_t a, std::size_t b) {
    return gap(a) > gap(b) || (gap(a) == gap(b) && a < b);
  });
  std::vector<std::size_t> ends;
  for (std::size_t k = 0; k + 1 < m; ++k) ends.push_back(order[k] + 1);
  std::sort(ends.begin(), ends.end());
  ends.push_back(n);
  std::vector<Impulse> out;
  std::size_t start = 0;
  for (const std::size_t end : ends) {
    double mass = 0.0;
    double weighted = 0.0;
    for (std::size_t i = start; i < end; ++i) {
      mass += sorted[i].prob;
      weighted += sorted[i].prob * sorted[i].value;
    }
    const Impulse merged{weighted / mass, mass};
    if (!out.empty() && merged.value <= out.back().value) {
      out.back().prob += merged.prob;
    } else {
      out.push_back(merged);
    }
    start = end;
  }
  return out;
}

/// Reference cross product of X + Y: every (x_i + y_j, p_i q_j) in
/// generation order, stably sorted by value, equal values joined (their
/// probabilities folded in order), then divided by the left-folded mass.
std::vector<Impulse> ReferenceCross(const Pmf& x, const Pmf& y) {
  std::vector<Impulse> cross;
  for (const Impulse& xi : x.impulses()) {
    for (const Impulse& yj : y.impulses()) {
      cross.push_back(Impulse{xi.value + yj.value, xi.prob * yj.prob});
    }
  }
  std::stable_sort(
      cross.begin(), cross.end(),
      [](const Impulse& a, const Impulse& b) { return a.value < b.value; });
  std::vector<Impulse> joined;
  for (const Impulse& imp : cross) {
    if (!joined.empty() && joined.back().value == imp.value) {
      joined.back().prob += imp.prob;
    } else {
      joined.push_back(imp);
    }
  }
  double mass = 0.0;
  for (const Impulse& imp : joined) mass += imp.prob;
  for (Impulse& imp : joined) imp.prob /= mass;
  return joined;
}

std::vector<Impulse> ImpulsesOf(const Pmf& pmf) {
  return {pmf.impulses().begin(), pmf.impulses().end()};
}

enum class Family { kUniform, kGammaChain, kIntegerTies, kTwoPointChain };

/// A pmf of exactly `size` impulses. kIntegerTies places them `step`
/// apart from 0: X = {0, 1, ..., a-1} (step 1) and Y = {0, a, 2a, ...}
/// (step a) have sums that cover consecutive integers, so every gap of the
/// cross product is 1 and selection rests on the index order alone.
Pmf FamilyPmf(Family family, util::RngStream& rng, std::size_t size,
              double step) {
  const auto random_prob = [&rng] { return rng.UniformReal(0.01, 1.0); };
  switch (family) {
    case Family::kUniform: {
      std::vector<Impulse> impulses;
      for (std::size_t i = 0; i < size; ++i) {
        impulses.push_back(Impulse{rng.UniformReal(500.0, 1500.0),
                                   random_prob()});
      }
      return Pmf::FromImpulses(std::move(impulses), size);
    }
    case Family::kGammaChain: {
      const auto gamma = [&rng] {
        return DiscretizedGamma(rng.UniformReal(100.0, 2000.0),
                                rng.UniformReal(0.1, 1.0));
      };
      Pmf chain = gamma();
      for (int i = 0; i < 3; ++i) chain = Convolve(chain, gamma(), size);
      return chain;
    }
    case Family::kIntegerTies: {
      std::vector<Impulse> impulses;
      for (std::size_t i = 0; i < size; ++i) {
        impulses.push_back(
            Impulse{step * static_cast<double>(i), random_prob()});
      }
      return Pmf::FromImpulses(std::move(impulses), size);
    }
    case Family::kTwoPointChain: {
      const auto two_point = [&] {
        return Pmf::FromImpulses(
            {{rng.UniformReal(10.0, 20.0), random_prob()},
             {rng.UniformReal(10.0, 20.0), random_prob()}});
      };
      if (size == 1) return Pmf::Delta(rng.UniformReal(10.0, 20.0));
      Pmf chain = two_point();
      while (chain.size() < size) chain = Convolve(chain, two_point(), size);
      return chain;
    }
  }
  return Pmf{};
}

using Shapes = std::vector<std::pair<std::size_t, std::size_t>>;

TEST(CompactionReference, EveryCompactionKeepsTheStrongestGaps) {
  // ConvolveInto, MaxInto, Compact and FromImpulses must each equal, bit
  // for bit, the reference above applied to their uncompacted result.
  constexpr std::size_t kExact = std::size_t{1} << 20;
  util::RngStream rng(2011);
  std::size_t cases = 0;
  for (const Family family : {Family::kUniform, Family::kGammaChain,
                              Family::kIntegerTies, Family::kTwoPointChain}) {
    // Per m, operand sizes whose cross products have m + 1 and 2m terms,
    // then 24x32 and 64x64.
    const std::vector<std::pair<std::size_t, Shapes>> plan = {
        {1, {{1, 2}, {2, 1}, {24, 32}, {64, 64}}},
        {2, {{1, 3}, {2, 2}, {24, 32}, {64, 64}}},
        {3, {{2, 2}, {2, 3}, {24, 32}, {64, 64}}},
        {32, {{3, 11}, {8, 8}, {24, 32}, {64, 64}}}};
    for (const auto& [m, shapes] : plan) {
      for (const auto& [a, b] : shapes) {
        const std::string label = "family " +
                                  std::to_string(static_cast<int>(family)) +
                                  " m " + std::to_string(m) + " shape " +
                                  std::to_string(a) + "x" + std::to_string(b);
        const Pmf x = FamilyPmf(family, rng, a, 1.0);
        const Pmf y = FamilyPmf(family, rng, b, static_cast<double>(a));
        ASSERT_EQ(x.size(), a) << label;
        ASSERT_EQ(y.size(), b) << label;

        const std::vector<Impulse> cross = ReferenceCross(x, y);
        const Pmf exact = Convolve(x, y, kExact);
        ASSERT_EQ(ImpulsesOf(exact), cross) << label;
        if (family == Family::kIntegerTies) {
          ASSERT_EQ(cross.size(), a * b) << label;
        }
        Pmf conv;
        ConvolveInto(x, y, m, conv);
        EXPECT_EQ(ImpulsesOf(conv), ReferenceCompact(cross, m)) << label;

        EXPECT_EQ(ImpulsesOf(exact.Compact(m)),
                  ReferenceCompact(ImpulsesOf(exact), m))
            << label;

        std::vector<Impulse> shuffled = ImpulsesOf(exact);
        std::reverse(shuffled.begin(), shuffled.end());
        EXPECT_EQ(ImpulsesOf(Pmf::FromImpulses(shuffled, m)),
                  ReferenceCompact(
                      ImpulsesOf(Pmf::FromImpulses(shuffled, kExact)), m))
            << label;

        Pmf max;
        MaxInto(x, y, m, max);
        EXPECT_EQ(ImpulsesOf(max),
                  ReferenceCompact(ImpulsesOf(MaxOf(x, y, kExact)), m))
            << label;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 64u);
}

TEST(ProbSumLeq, ExtremeThresholds) {
  const Pmf x = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  const Pmf y = Pmf::FromImpulses({{3.0, 1.0}, {4.0, 1.0}});
  EXPECT_DOUBLE_EQ(ProbSumLeq(x, y, 3.9), 0.0);
  EXPECT_DOUBLE_EQ(ProbSumLeq(x, y, 4.0), 0.25);
  EXPECT_DOUBLE_EQ(ProbSumLeq(x, y, 6.0), 1.0);
}

TEST(Convolve, LongChainStaysNumericallyStable) {
  // Fifty compacted convolutions (a deep queue's worth): total mass and the
  // accumulated mean must not drift.
  util::RngStream rng(77);
  Pmf chain = RandomPmf(rng, 24);
  double expected_mean = chain.Expectation();
  for (int i = 0; i < 50; ++i) {
    const Pmf next = RandomPmf(rng, 24);
    expected_mean += next.Expectation();
    chain = Convolve(chain, next);
    ASSERT_LE(chain.size(), Pmf::kDefaultMaxImpulses);
  }
  EXPECT_NEAR(Mass(chain), 1.0, 1e-9);
  EXPECT_NEAR(chain.Expectation(), expected_mean, 1e-6 * expected_mean);
}

TEST(Pmf, CdfIsMonotoneNonDecreasing) {
  util::RngStream rng(88);
  const Pmf pmf = RandomPmf(rng, 40);
  double prev = -1.0;
  for (double t = pmf.Min() - 5.0; t <= pmf.Max() + 5.0; t += 1.0) {
    const double cdf = pmf.CdfAt(t);
    EXPECT_GE(cdf, prev);
    prev = cdf;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(Pmf, CdfQuantileIsTheFirstValueReachingTheThreshold) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}, {3.0, 2.0}});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(pmf.CdfQuantile(0.0), -kInf);
  EXPECT_EQ(pmf.CdfQuantile(-1.0), -kInf);
  EXPECT_EQ(pmf.CdfQuantile(std::numeric_limits<double>::quiet_NaN()), -kInf);
  EXPECT_EQ(pmf.CdfQuantile(1e-300), 1.0);
  EXPECT_EQ(pmf.CdfQuantile(0.25), 1.0);
  EXPECT_EQ(pmf.CdfQuantile(0.3), 2.0);
  EXPECT_EQ(pmf.CdfQuantile(0.5), 2.0);
  EXPECT_EQ(pmf.CdfQuantile(1.0), 3.0);
  EXPECT_EQ(pmf.CdfQuantile(1.0 + 0x1p-52), kInf);
  EXPECT_THROW((void)Pmf().CdfQuantile(0.5), std::invalid_argument);
}

TEST(Pmf, CdfAtIsBelowAThresholdExactlyBelowItsCdfQuantile) {
  // For every finite t, CdfAt(t) < p must equal t < CdfQuantile(p), bit for
  // bit: p at each prefix sum CdfAt can return and one ulp either side, t
  // at each support value and one ulp either side. Two raw pmfs carry mass
  // just above and just below 1, where CdfAt's clamp decides.
  std::vector<Pmf> pmfs;
  for (const double mean : {1.0, 37.5, 750.0, 4321.0}) {
    for (const double cov : {0.1, 0.25, 0.9}) {
      pmfs.push_back(DiscretizedGamma(mean, cov));
    }
  }
  util::RngStream rng(314);
  for (const std::size_t n : {1u, 2u, 5u, 24u, 64u}) {
    for (int k = 0; k < 4; ++k) pmfs.push_back(RandomPmf(rng, n));
  }
  pmfs.push_back(Pmf::FromRawUnchecked({{1.0, 0.5}, {2.0, 0.5 + 1e-12}}));
  pmfs.push_back(Pmf::FromRawUnchecked({{1.0, 0.5}, {2.0, 0.5 - 1e-12}}));

  std::size_t compared = 0;
  for (const Pmf& pmf : pmfs) {
    std::vector<double> thresholds = {0.0, 1e-300, 0.5, 1.0, 1.0 + 0x1p-52};
    std::vector<double> times;
    double acc = 0.0;
    for (const Impulse& imp : pmf.impulses()) {
      acc += imp.prob;
      for (const double p : {acc, std::min(acc, 1.0)}) {
        thresholds.push_back(p);
        thresholds.push_back(std::nextafter(p, 0.0));
        thresholds.push_back(std::nextafter(p, 2.0));
      }
      times.push_back(imp.value);
      times.push_back(std::nextafter(imp.value, -INFINITY));
      times.push_back(std::nextafter(imp.value, INFINITY));
    }
    for (const double p : thresholds) {
      const double quantile = pmf.CdfQuantile(p);
      for (const double t : times) {
        ASSERT_EQ(pmf.CdfAt(t) < p, t < quantile)
            << std::setprecision(17) << "p = " << p << ", t = " << t
            << ", quantile " << quantile << ", pmf " << pmf;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100000u);
}

TEST(Pmf, ShiftAndScaleCompose) {
  util::RngStream rng(99);
  const Pmf pmf = RandomPmf(rng, 16);
  const Pmf a = pmf.Shift(10.0).ScaleValues(2.0);
  const Pmf b = pmf.ScaleValues(2.0).Shift(20.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.impulses()[i].value, b.impulses()[i].value, 1e-9);
    EXPECT_DOUBLE_EQ(a.impulses()[i].prob, b.impulses()[i].prob);
  }
}

TEST(Pmf, StreamOutputListsImpulses) {
  const Pmf pmf = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  std::ostringstream os;
  os << pmf;
  EXPECT_NE(os.str().find("(1, 0.5)"), std::string::npos);
}

TEST(Pmf, EmptyPmfOperationsThrow) {
  const Pmf empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW((void)empty.Expectation(), std::invalid_argument);
  EXPECT_THROW((void)empty.Min(), std::invalid_argument);
  EXPECT_THROW((void)empty.CdfAt(0.0), std::invalid_argument);
  EXPECT_THROW((void)empty.Shift(1.0), std::invalid_argument);
  EXPECT_THROW((void)empty.TruncateBelow(0.0), std::invalid_argument);
}

// -- MaxOf / MaxInto (gang stage completion: max across siblings) --

/// Brute-force max distribution: enumerate the |X|·|Y| cross product of
/// outcomes and merge with FromImpulses, the reference the sweep kernel
/// must reproduce.
Pmf BruteForceMax(const Pmf& x, const Pmf& y, std::size_t max_impulses) {
  std::vector<Impulse> cross;
  for (const Impulse& xi : x.impulses()) {
    for (const Impulse& yj : y.impulses()) {
      cross.push_back(
          Impulse{std::max(xi.value, yj.value), xi.prob * yj.prob});
    }
  }
  return Pmf::FromImpulses(std::move(cross), max_impulses);
}

class MaxProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxProperties, MatchesBruteForceEnumeration) {
  util::RngStream rng(GetParam() + 4000);
  const Pmf x = RandomPmf(rng, 16);
  const Pmf y = RandomPmf(rng, 20);
  const Pmf exact = MaxOf(x, y, 1u << 20);  // nothing merged
  const Pmf brute = BruteForceMax(x, y, 1u << 20);
  ASSERT_EQ(exact.size(), brute.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_DOUBLE_EQ(exact.impulses()[i].value, brute.impulses()[i].value);
    EXPECT_NEAR(exact.impulses()[i].prob, brute.impulses()[i].prob, 1e-12);
  }
  EXPECT_NEAR(Mass(exact), 1.0, 1e-9);
  // Support bounds: the max can never finish before the later-starting
  // sibling, nor after the slower one.
  EXPECT_NEAR(exact.Min(), std::max(x.Min(), y.Min()), 1e-12);
  EXPECT_NEAR(exact.Max(), std::max(x.Max(), y.Max()), 1e-12);
  EXPECT_GE(exact.Expectation() + 1e-9,
            std::max(x.Expectation(), y.Expectation()));
}

TEST_P(MaxProperties, CdfIsProductOfInputCdfs) {
  util::RngStream rng(GetParam() + 5000);
  const Pmf x = RandomPmf(rng, 12);
  const Pmf y = RandomPmf(rng, 14);
  const Pmf exact = MaxOf(x, y, 1u << 20);
  for (const double t : {-1.0, 10.0, 25.0, 50.0, 75.0, 99.0, 150.0}) {
    EXPECT_NEAR(exact.CdfAt(t), x.CdfAt(t) * y.CdfAt(t), 1e-12) << "t=" << t;
  }
}

TEST_P(MaxProperties, IsCommutative) {
  util::RngStream rng(GetParam() + 6000);
  const Pmf x = RandomPmf(rng, 15);
  const Pmf y = RandomPmf(rng, 17);
  EXPECT_EQ(MaxOf(x, y), MaxOf(y, x));
  EXPECT_EQ(MaxOf(x, y, 8), MaxOf(y, x, 8));
}

TEST_P(MaxProperties, CompactedPreservesMass) {
  util::RngStream rng(GetParam() + 7000);
  const Pmf x = RandomPmf(rng, 24);
  const Pmf y = RandomPmf(rng, 24);
  const Pmf compacted = MaxOf(x, y, 8);
  EXPECT_LE(compacted.size(), 8u);
  EXPECT_NEAR(Mass(compacted), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(MaxOf, EmptyPmfIsIdentity) {
  const Pmf x = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  const Pmf empty;
  EXPECT_EQ(MaxOf(empty, x), x);
  EXPECT_EQ(MaxOf(x, empty), x);
  EXPECT_THROW((void)MaxOf(empty, empty), std::invalid_argument);
  // The fold idiom: accumulate into a default-constructed pmf.
  Pmf acc;
  MaxInto(acc, x, Pmf::kDefaultMaxImpulses, acc);
  EXPECT_EQ(acc, x);
}

TEST(MaxOf, SingleImpulseEdgeCases) {
  const Pmf lo = Pmf::Delta(1.0);
  const Pmf hi = Pmf::Delta(5.0);
  // Deltas: the max is the later delta.
  EXPECT_EQ(MaxOf(lo, hi), hi);
  EXPECT_EQ(MaxOf(hi, lo), hi);
  EXPECT_EQ(MaxOf(lo, lo), lo);
  // A delta past the whole support collapses the other input.
  const Pmf spread = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}, {3.0, 2.0}});
  EXPECT_EQ(MaxOf(spread, Pmf::Delta(10.0)), Pmf::Delta(10.0));
  // A delta below the whole support is absorbed.
  EXPECT_EQ(MaxOf(spread, Pmf::Delta(0.5)), spread);
  // A delta inside the support truncates below it: mass at or under the
  // delta's value piles onto the delta point.
  const Pmf mixed = MaxOf(spread, Pmf::Delta(2.0));
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_DOUBLE_EQ(mixed.impulses()[0].value, 2.0);
  EXPECT_DOUBLE_EQ(mixed.impulses()[0].prob, 0.5);
  EXPECT_DOUBLE_EQ(mixed.impulses()[1].value, 3.0);
  EXPECT_DOUBLE_EQ(mixed.impulses()[1].prob, 0.5);
}

TEST(MaxOf, SharedSupportValuesMergeExactly) {
  // Equal values in both inputs must land on one output impulse, not two.
  const Pmf x = Pmf::FromImpulses({{1.0, 1.0}, {2.0, 1.0}});
  const Pmf y = Pmf::FromImpulses({{2.0, 1.0}, {3.0, 1.0}});
  // Enumeration: (1,2)(2,2) -> 2 with mass 0.5, (1,3)(2,3) -> 3 with 0.5.
  const Pmf exact = MaxOf(x, y);
  ASSERT_EQ(exact.size(), 2u);
  EXPECT_DOUBLE_EQ(exact.impulses()[0].value, 2.0);
  EXPECT_DOUBLE_EQ(exact.impulses()[0].prob, 0.5);
  EXPECT_DOUBLE_EQ(exact.impulses()[1].value, 3.0);
  EXPECT_DOUBLE_EQ(exact.impulses()[1].prob, 0.5);
}

TEST(MaxOf, MaxIntoMatchesMaxOfAndAllowsAliasing) {
  util::RngStream rng(654);
  const Pmf x = RandomPmf(rng, 24);
  const Pmf y = RandomPmf(rng, 24);
  const Pmf reference = MaxOf(x, y);
  Pmf out;
  MaxInto(x, y, Pmf::kDefaultMaxImpulses, out);
  EXPECT_EQ(out, reference);
  Pmf acc = x;
  MaxInto(acc, y, Pmf::kDefaultMaxImpulses, acc);
  EXPECT_EQ(acc, reference);
  Pmf acc_rhs = y;
  MaxInto(x, acc_rhs, Pmf::kDefaultMaxImpulses, acc_rhs);
  EXPECT_EQ(acc_rhs, reference);
}

// ------------------- SelectKthLargest (compaction ranks) --------------------

/// Gaps as compaction sees them: ties, zeros of both signs, one-ulp
/// neighbours, values across many binades, subnormals and an overflowed +inf.
std::vector<double> AwkwardGaps(util::RngStream& rng, std::size_t n) {
  std::vector<double> pool = {0.0, -0.0, 1.0, std::nextafter(1.0, 2.0),
                              std::nextafter(1.0, 0.0), 0.5, 1e-300,
                              std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::infinity()};
  std::vector<double> gaps;
  for (std::size_t i = 0; i < n; ++i) {
    const double pick = rng.UniformReal(0.0, 1.0);
    if (pick < 0.4) {
      gaps.push_back(pool[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(pool.size()) - 1))]);
    } else if (pick < 0.6 && !gaps.empty()) {
      const double near = gaps[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(gaps.size()) - 1))];
      gaps.push_back(std::isinf(near) ? near : std::nextafter(near, 4.0));
    } else {
      gaps.push_back(std::ldexp(rng.UniformReal(0.5, 1.0),
                                static_cast<int>(rng.UniformInt(-60, 60))));
    }
  }
  return gaps;
}

TEST(SelectKthLargest, AgreesWithNthElementOnAwkwardGaps) {
  util::RngStream rng(31);
  for (int round = 0; round < 300; ++round) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 120));
    const std::vector<double> gaps = AwkwardGaps(rng, n);
    std::vector<double> descending = gaps;
    std::sort(descending.begin(), descending.end(), std::greater<>());
    for (std::size_t k = 1; k <= n; ++k) {
      std::vector<double> by_nth = gaps;
      std::nth_element(by_nth.begin(), by_nth.begin() + (k - 1), by_nth.end(),
                       std::greater<>());
      std::vector<double> scratch = gaps;
      const KthLargest got = SelectKthLargest(scratch, k);
      ASSERT_EQ(got.value, by_nth[k - 1]) << "round " << round << " k " << k;
      const auto ties = static_cast<std::size_t>(
          std::count(descending.begin(), descending.begin() + k, got.value));
      ASSERT_EQ(got.ties, ties) << "round " << round << " k " << k;
    }
  }
}

TEST(SelectKthLargest, AllEqualAndSingleValues) {
  std::vector<double> same(7, 2.5);
  const KthLargest all = SelectKthLargest(same, 4);
  EXPECT_EQ(all.value, 2.5);
  EXPECT_EQ(all.ties, 4u);
  std::vector<double> one = {3.0};
  EXPECT_EQ(SelectKthLargest(one, 1).value, 3.0);
  std::vector<double> zeros = {-0.0, 0.0, 1.0};
  const KthLargest zero = SelectKthLargest(zeros, 3);
  EXPECT_EQ(zero.value, 0.0);
  EXPECT_EQ(zero.ties, 2u);
}

}  // namespace
}  // namespace ecdra::pmf
