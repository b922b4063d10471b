// Sparse probability mass functions over the (continuous) time axis.
//
// This is the stochastic substrate of §IV of the paper: execution times are
// pmfs; completion times are convolutions of pmfs shifted by ready times; the
// completion-time pmf of an already-running task is its execution-time pmf
// shifted by its start time with past impulses removed and the remainder
// renormalized.
//
// Representation: impulses (value, probability) sorted by strictly increasing
// value, probabilities > 0 and summing to 1 (within kMassTolerance).
// Convolution grows the support multiplicatively, so every constructed pmf is
// compacted to a bounded number of impulses by merging the closest-together
// neighbours at their probability-weighted midpoint — an approximation that
// preserves total mass and the exact mean, with resolution controlled by
// `max_impulses`.
//
// Storage is small-buffer (impulse_vec.hpp): supports at or below
// kDefaultMaxImpulses — the steady state of the scheduler's hot path — are
// held inline, and the in-place operation variants (ShiftInPlace,
// ScaleValuesInPlace, TruncateBelowInPlace, ConvolveInto) mutate existing
// storage, so a robustness query performs no heap allocation at all.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "pmf/impulse_vec.hpp"

namespace ecdra::pmf {

class Pmf;

/// Result of Pmf::TruncateBelow.
struct TruncateResult;

class Pmf {
 public:
  /// Mass-conservation tolerance for validation.
  static constexpr double kMassTolerance = 1e-9;
  /// Default compaction bound; chosen so a convolution chain stays accurate
  /// to well under 1% of a deadline-probability while keeping candidate
  /// evaluation O(10^3) flops. Equal to the inline storage capacity, so
  /// compacted pmfs never allocate.
  static constexpr std::size_t kDefaultMaxImpulses = kInlineImpulseCapacity;

  /// The empty pmf is invalid for probability queries; use Delta/FromImpulses.
  Pmf() = default;

  /// Degenerate (deterministic) distribution: all mass at `value`.
  [[nodiscard]] static Pmf Delta(double value);

  /// Builds a pmf from arbitrary (value, prob) pairs: sorts, merges duplicate
  /// values, drops non-positive probabilities, normalizes to mass 1, and
  /// compacts to `max_impulses`. Requires at least one positive-probability
  /// impulse.
  [[nodiscard]] static Pmf FromImpulses(
      std::vector<Impulse> impulses,
      std::size_t max_impulses = kDefaultMaxImpulses);

  /// Deserialization/test seam: wraps raw impulses with no sorting, merging,
  /// normalization, or compaction. The caller vouches for the class
  /// invariants; ValidatePmfInvariants audits the result (the validation
  /// layer's mass-conservation tests seed broken pmfs through this).
  [[nodiscard]] static Pmf FromRawUnchecked(std::vector<Impulse> impulses) {
    ImpulseVec raw;
    raw.assign(impulses.data(), impulses.size());
    return Pmf(std::move(raw));
  }

  [[nodiscard]] bool empty() const noexcept { return impulses_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return impulses_.size(); }
  [[nodiscard]] std::span<const Impulse> impulses() const noexcept {
    return {impulses_.data(), impulses_.size()};
  }

  [[nodiscard]] double Min() const;
  [[nodiscard]] double Max() const;
  [[nodiscard]] double Expectation() const;
  [[nodiscard]] double Variance() const;

  /// P(X <= t).
  [[nodiscard]] double CdfAt(double t) const;

  /// The smallest support value whose prefix sum, folded in CdfAt's order
  /// and clamped at 1.0 as CdfAt clamps it, reaches `p`; -inf when p <= 0
  /// (or NaN) and +inf when no prefix sum reaches it. The clamped prefix
  /// sums never decrease, so for every finite t, CdfAt(t) < p exactly when
  /// t < CdfQuantile(p): one comparison answers a fixed threshold question.
  [[nodiscard]] double CdfQuantile(double p) const;

  /// Adds a constant to every support value (time shift, e.g. by a start or
  /// ready time).
  [[nodiscard]] Pmf Shift(double dt) const;

  /// Shift without the copy; mutates this pmf's storage in place.
  void ShiftInPlace(double dt);

  /// Multiplies every support value by `factor` > 0 (P-state execution-time
  /// multiplier).
  [[nodiscard]] Pmf ScaleValues(double factor) const;

  /// ScaleValues without the copy; mutates this pmf's storage in place.
  void ScaleValuesInPlace(double factor);

  /// §IV-B truncation: removes impulses with value < t and renormalizes.
  /// Returns the renormalized pmf and the mass that was retained. If the
  /// retained mass is zero (the model says the task "should" already have
  /// finished) or too small to renormalize meaningfully (at most
  /// kMassTolerance), the pmf falls back to Delta(t) — completion is
  /// imminent — while retained_mass still reports the true (possibly tiny,
  /// never fabricated) surviving mass, so callers branching on
  /// `retained_mass > 0` see a state consistent with the input.
  [[nodiscard]] TruncateResult TruncateBelow(double t) const;

  /// TruncateBelow without the copy; mutates this pmf in place and returns
  /// the retained mass. Same Delta(t) fallback as TruncateBelow.
  double TruncateBelowInPlace(double t);

  /// Inverse-CDF sample: the first impulse value whose cumulative mass
  /// reaches the uniform variate `u` in [0, 1).
  [[nodiscard]] double Sample(double u) const;

  /// Reduces the support to at most `max_impulses` by repeatedly merging the
  /// two adjacent impulses with the smallest value gap into one impulse at
  /// their probability-weighted mean. Preserves total mass and expectation.
  [[nodiscard]] Pmf Compact(std::size_t max_impulses) const;

  friend bool operator==(const Pmf&, const Pmf&) = default;

 private:
  friend void ConvolveInto(const Pmf& x, const Pmf& y,
                           std::size_t max_impulses, Pmf& out);
  friend void MaxInto(const Pmf& x, const Pmf& y, std::size_t max_impulses,
                      Pmf& out);

  explicit Pmf(ImpulseVec sorted_normalized)
      : impulses_(std::move(sorted_normalized)) {}

  ImpulseVec impulses_;
};

struct TruncateResult {
  Pmf pmf;
  double retained_mass = 0.0;
};

/// Distribution of X + Y for independent X, Y, compacted to `max_impulses`.
/// The kernel distribution-sorts the |X|·|Y| cross product (a monotone
/// bucket classification plus one insertion pass) in flat thread-local
/// scratch instead of comparison-sorting heap-allocated terms.
[[nodiscard]] Pmf Convolve(const Pmf& x, const Pmf& y,
                           std::size_t max_impulses = Pmf::kDefaultMaxImpulses);

/// Convolve into existing storage: `out` is overwritten with the compacted
/// convolution, reusing its buffer. `out` may alias `x` or `y` (the kernel
/// works in thread-local scratch and writes `out` last) — the idiom for
/// suffix-convolution chains like `ConvolveInto(acc, next, k, acc)`.
void ConvolveInto(const Pmf& x, const Pmf& y, std::size_t max_impulses,
                  Pmf& out);

/// Distribution of max(X, Y) for independent X, Y, compacted to
/// `max_impulses`. The result's CDF is the pointwise product
/// F_max(t) = F_X(t) · F_Y(t), computed exactly over the union support in
/// O(|X| + |Y|). This is the sibling-join of a gang stage: a stage of
/// simultaneous tasks completes when its slowest member does, so the stage
/// completion pmf is the max across members (and a job chain convolves
/// stage maxima — see src/workload/job.hpp).
[[nodiscard]] Pmf MaxOf(const Pmf& x, const Pmf& y,
                        std::size_t max_impulses = Pmf::kDefaultMaxImpulses);

/// Max into existing storage, mirroring ConvolveInto: `out` is overwritten
/// with the compacted max distribution and may alias `x` or `y` (all reads
/// happen in thread-local scratch before `out` is touched) — the idiom for
/// sibling folds like `MaxInto(acc, next, k, acc)`. Unlike ConvolveInto, an
/// empty pmf is accepted and acts as the identity (max over zero members),
/// so a fold can start from a default-constructed accumulator; only both
/// inputs empty is an error.
void MaxInto(const Pmf& x, const Pmf& y, std::size_t max_impulses, Pmf& out);

/// P(X + Y <= t) for independent X, Y — computed exactly from the two sparse
/// supports in O(|X| + |Y|) with a two-pointer sweep, avoiding an explicit
/// convolution. This is the hot path of the robustness computation ρ(...).
[[nodiscard]] double ProbSumLeq(const Pmf& x, const Pmf& y, double t);

/// The k-th largest of `values` and how many of the k largest equal it.
struct KthLargest {
  double value;
  std::size_t ties;
};

/// The k-th largest (1 <= k <= values.size()) of `values`, which must be
/// non-negative and not NaN (-0.0 ranks as 0.0). Non-negative doubles order
/// like their bit patterns, so it is a radix select: eight bits at a time
/// of each pattern's offset from the smallest, starting at the highest bit
/// where the largest and smallest differ, narrowing `values` in place (its
/// contents are clobbered). Every compaction ranks its gaps with it; public
/// so tests can pin it against std::nth_element.
[[nodiscard]] KthLargest SelectKthLargest(std::span<double> values,
                                          std::size_t k);

/// Deep-validation hook: audits `pmf` against the class invariants — total
/// mass within Pmf::kMassTolerance of 1, strictly increasing support,
/// strictly positive finite probabilities — and reports any breach to the
/// active validate::TrialValidator as a "pmf-mass" / "pmf-support" check
/// (no-op without an active validator). `op` names the operation that
/// produced the pmf ("convolve", "truncate", ...). Called automatically by
/// Convolve/FromImpulses/Shift/ScaleValues/TruncateBelow/Compact when a deep
/// validator is active; public so tests can audit seeded-bug pmfs directly.
void ValidatePmfInvariants(const Pmf& pmf, std::string_view op);

std::ostream& operator<<(std::ostream& os, const Pmf& pmf);

}  // namespace ecdra::pmf
