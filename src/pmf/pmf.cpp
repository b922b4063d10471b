#include "pmf/pmf.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <vector>

#include "obs/counters.hpp"
#include "util/assert.hpp"
#include "validate/validation.hpp"

namespace ecdra::pmf {
namespace {

double TotalMass(const Impulse* impulses, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += impulses[i].prob;
  return acc;
}

void NormalizeMass(Impulse* impulses, std::size_t n) {
  const double mass = TotalMass(impulses, n);
  ECDRA_ASSERT(mass > 0.0, "cannot normalize a zero-mass pmf");
  for (std::size_t i = 0; i < n; ++i) impulses[i].prob /= mass;
}

/// SoA twin of TotalMass, for the convolution pipeline: the fold order
/// (ascending, one accumulator) matches it element for element, which the
/// golden fixture depends on.
double TotalMassSoA(const double* probs, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += probs[i];
  return acc;
}

struct FoldResult {
  double mass;
  bool needs_coalesce;
};

/// Left-folds the total mass and, on the same pass, detects the two defects
/// a raw sorted cross product can carry: non-positive probabilities
/// (underflowed products) and exactly-equal adjacent values (FP absorption).
/// The branch-free checks ride the serial fold chain's idle issue slots, so
/// the clean common case costs no more than the fold alone. When a defect
/// is flagged the returned mass is discarded and recomputed post-coalesce.
FoldResult FoldAndCheck(const double* vals, const double* probs,
                        std::size_t n) {
  double mass = probs[0];  // == 0.0 + probs[0] bitwise for positive probs
  unsigned bad = !(probs[0] > 0.0);
  for (std::size_t k = 1; k < n; ++k) {
    mass += probs[k];
    bad |= static_cast<unsigned>(!(probs[k] > 0.0)) |
           static_cast<unsigned>(vals[k - 1] == vals[k]);
  }
  return FoldResult{mass, bad != 0};
}

/// Merges a sorted run [first, last) into a single impulse at the
/// probability-weighted mean value. With kNormalize, each probability is
/// divided by `divisor` as it is read: the convolution pipeline passes its
/// total mass here instead of running a separate normalization pass over
/// the arrays, and the quotient folded is bit-identical to the one that
/// pass would have stored (one rounding either way). Pre-normalized
/// callers use kNormalize = false, which folds the same bits a division by
/// 1.0 would produce without occupying the divider.
template <bool kNormalize>
Impulse MergeRun(const double* vals, const double* probs, std::size_t first,
                 std::size_t last, double divisor) {
  double mass = 0.0;
  double weighted = 0.0;
  for (std::size_t i = first; i < last; ++i) {
    const double q = kNormalize ? probs[i] / divisor : probs[i];
    mass += q;
    weighted += q * vals[i];
  }
  return Impulse{weighted / mass, mass};
}

/// Deep-mode audit of a freshly constructed pmf; a single thread-local
/// null-check when deep validation is inactive.
inline void DeepCheck(const Pmf& pmf, const char* op) {
  if (validate::DeepValidator() != nullptr) [[unlikely]] {
    ValidatePmfInvariants(pmf, op);
  }
}

/// Reusable per-thread buffers for the convolve/compact kernels, so the hot
/// path performs no heap allocation once warm. Trials are single-threaded
/// (one engine per thread), matching the obs/validate thread-local pattern.
struct PmfScratch {
  std::vector<double> vals;   // cross-product values, sorted ascending
  std::vector<double> probs;  // matching probabilities
  // Bucket counts, then scatter offsets. Once the values are sorted,
  // compaction reuses it for the indices of its candidate gaps and then of
  // the kept ones (SelectBoundaries).
  std::vector<std::uint32_t> hist;
  std::vector<Impulse> pairs;  // std::sort fallback workspace
  std::vector<double> gaps;    // compaction: the gaps SelectBoundaries ranks
};

PmfScratch& Scratch() {
  thread_local PmfScratch scratch;
  return scratch;
}

/// Compaction boundary selection, the one routine every compaction uses.
/// The boundaries are the `keep` strongest gaps vals[i + 1] - vals[i], a gap
/// being stronger when it is larger or, at an equal gap, when its index is
/// lower. Earlier kernels kept the same set (an nth_element threshold with
/// a tie budget, then a bounded min-heap), so every compacted pmf keeps its
/// bits. Three steps:
///
/// 1. τ is the keep-th largest of the first and last `keep` gaps (of every
///    gap when there are fewer than 2·keep). A subset's keep-th largest
///    never exceeds the whole set's, so every boundary gap is >= τ. The
///    wide gaps of a trial pmf sit in its sparse tails, at both ends, so τ
///    lands near the final cut.
/// 2. One pass over vals writes the index of every gap >= τ into s.hist
///    without a branch: the store is unconditional, and only the count
///    depends on the compare. With kFold, the same pass does FoldAndCheck's
///    mass fold and defect checks, whose serial add chain leaves the issue
///    slots for the rest.
/// 3. The keep-th largest candidate gap is the cut. Every candidate above
///    it is kept, and of the ties at it the lowest indices, written back in
///    index order to s.hist[0, keep): they are the sorted run boundaries.
///
/// Steps 1 and 3 rank with SelectKthLargest in s.gaps. Requires
/// 1 <= keep < n - 1 and finite vals, so no gap is NaN. If kFold flags
/// needs_coalesce, step 3 is skipped: the caller coalesces the arrays and
/// selects again.
template <bool kFold>
FoldResult SelectBoundaries(const double* vals, const double* probs,
                            std::size_t n, std::size_t keep, PmfScratch& s) {
  const std::size_t num_gaps = n - 1;
  const std::size_t sampled = std::min(num_gaps, 2 * keep);
  if (s.gaps.size() < sampled) s.gaps.resize(sampled);
  double* gaps = s.gaps.data();
  for (std::size_t i = 0; i < sampled; ++i) {
    const std::size_t at = i < keep ? i : num_gaps - sampled + i;
    gaps[i] = vals[at + 1] - vals[at];
  }
  const double tau = SelectKthLargest({gaps, sampled}, keep).value;

  if (s.hist.size() < n) s.hist.resize(n);
  std::uint32_t* const cand = s.hist.data();
  std::size_t count = 0;
  double mass = probs[0];  // == 0.0 + probs[0] bitwise for positive probs
  unsigned bad = !(probs[0] > 0.0);
  for (std::size_t k = 1; k < n; ++k) {
    if constexpr (kFold) {
      mass += probs[k];
      bad |= static_cast<unsigned>(!(probs[k] > 0.0)) |
             static_cast<unsigned>(vals[k - 1] == vals[k]);
    }
    cand[count] = static_cast<std::uint32_t>(k - 1);
    count += static_cast<std::size_t>(vals[k] - vals[k - 1] >= tau);
  }
  if (kFold && bad != 0) return FoldResult{mass, true};

  if (count > keep) {
    if (s.gaps.size() < count) s.gaps.resize(count);
    gaps = s.gaps.data();
    for (std::size_t i = 0; i < count; ++i) {
      gaps[i] = vals[cand[i] + 1] - vals[cand[i]];
    }
    const KthLargest cut = SelectKthLargest({gaps, count}, keep);
    std::size_t ties = cut.ties;  // how many gaps equal to the cut are kept
    std::size_t kept = 0;
    for (std::size_t i = 0; kept < keep; ++i) {
      const std::uint32_t at = cand[i];
      const double gap = vals[at + 1] - vals[at];
      if (gap > cut.value) {
        cand[kept++] = at;
      } else if (gap == cut.value && ties > 0) {
        --ties;
        cand[kept++] = at;
      }
    }
  }
  return FoldResult{mass, false};
}

/// Per-bucket occupancy bound for the distribution sort below: past this,
/// the quadratic insertion repair would cost more than a comparison sort,
/// so SortCrossProduct falls back to std::sort.
constexpr std::uint32_t kBucketSkewLimit = 32;

/// The fused convolution front half: lays the |X|·|Y| cross product
/// {x_i + y_j, p_i·q_j} into s.vals / s.probs in ascending value order and
/// returns its size (uncoalesced; zero-probability underflows kept).
///
/// Comparison-sorting the cross product dominated the old kernel, and a
/// heap-based k-way merge of the |X| sorted runs is latency-bound on
/// dependent loads, so the sort is distribution-based instead: a monotone
/// affine map classifies every term into one of ~n/2 value buckets
/// (counting sort), and a single insertion pass repairs the remaining
/// intra-bucket disorder. Correctness never rests on the bucket math — the
/// insertion pass is a full sort and the map is monotone (so equal values
/// share a bucket and bucket order respects value order); bucketing only
/// bounds the number of inversions. Collapsed / overflowed value ranges and
/// heavily skewed supports fall back to std::sort.
///
/// Bit-identity notes: sums and products are commutative, so each term is
/// bit-identical to the old kernel's; the insertion pass uses strict
/// compares, so exactly-equal sums stay in generation order and their
/// probabilities left-fold downstream just as the sort-based path did.
std::size_t SortCrossProduct(std::span<const Impulse> xs,
                             std::span<const Impulse> ys, PmfScratch& s) {
  const std::size_t nx = xs.size();
  const std::size_t ny = ys.size();
  const std::size_t n = nx * ny;
  s.vals.resize(n);
  s.probs.resize(n);
  double* const vals = s.vals.data();
  double* const probs = s.probs.data();

  // Degenerate factor: the cross product is one already-sorted run (FP
  // addition is monotone).
  if (nx == 1) {
    const Impulse a = xs[0];
    for (std::size_t j = 0; j < ny; ++j) {
      vals[j] = a.value + ys[j].value;
      probs[j] = a.prob * ys[j].prob;
    }
    return n;
  }
  if (ny == 1) {
    const Impulse b = ys[0];
    for (std::size_t i = 0; i < nx; ++i) {
      vals[i] = xs[i].value + b.value;
      probs[i] = xs[i].prob * b.prob;
    }
    return n;
  }

  // The sorted endpoints bound every sum (monotone FP addition), giving the
  // bucket map's range. A non-finite or zero width (overflow, or the whole
  // support absorbed into one double) disables bucketing via scale == 0.
  const double lo = xs[0].value + ys[0].value;
  const double hi = xs[nx - 1].value + ys[ny - 1].value;
  const double width = hi - lo;
  // ~1 bucket per term: measured best trade between insertion repair work
  // (fewer collisions) and histogram/prefix cost, which grows with nb.
  const std::size_t nb =
      std::min<std::size_t>(std::bit_ceil(n), std::size_t{1} << 14);
  double scale = 0.0;
  if (width > 0.0 && std::isfinite(width)) {
    scale = static_cast<double>(nb) / width;
    if (!std::isfinite(scale)) scale = 0.0;  // denormal width
  }

  if (scale > 0.0) {
    s.hist.assign(nb, 0);
    std::uint32_t* const hist = s.hist.data();
    const auto limit = static_cast<std::uint32_t>(nb - 1);
    // Histogram pass. The bucket index is recomputed in the scatter pass
    // below instead of being staged in an array: regenerating it is a few
    // ALU ops per term, while staging would stream 2·4n bytes through a
    // cache the vals/probs arrays already fill. The index is a pure
    // function of the sum v, so both passes agree bucket-for-bucket.
    for (std::size_t i = 0; i < nx; ++i) {
      const double xv = xs[i].value;
      for (std::size_t j = 0; j < ny; ++j) {
        // v ∈ [lo, hi] and finite, so (v - lo) * scale is a small
        // non-negative double; the min guards the v == hi rounding edge.
        const double v = xv + ys[j].value;
        ++hist[std::min(static_cast<std::uint32_t>((v - lo) * scale), limit)];
      }
    }
    // Exclusive prefix sum: hist[b] becomes bucket b's scatter offset.
    std::uint32_t sum = 0;
    std::uint32_t max_count = 0;
    for (std::size_t b = 0; b < nb; ++b) {
      const std::uint32_t count = hist[b];
      hist[b] = sum;
      sum += count;
      max_count = std::max(max_count, count);
    }
    if (max_count <= kBucketSkewLimit) {
      // Scatter; regenerating each sum is cheaper than staging all of them.
      // Within a bucket, terms land in generation order.
      for (std::size_t i = 0; i < nx; ++i) {
        const double xv = xs[i].value;
        const double xp = xs[i].prob;
        for (std::size_t j = 0; j < ny; ++j) {
          const double v = xv + ys[j].value;
          const auto b =
              std::min(static_cast<std::uint32_t>((v - lo) * scale), limit);
          const std::uint32_t pos = hist[b]++;
          vals[pos] = v;
          probs[pos] = xp * ys[j].prob;
        }
      }
      // One insertion pass repairs intra-bucket disorder; strict compares
      // keep equal values stable.
      for (std::size_t k = 1; k < n; ++k) {
        const double v = vals[k];
        if (v >= vals[k - 1]) continue;
        const double p = probs[k];
        std::size_t m = k;
        do {
          vals[m] = vals[m - 1];
          probs[m] = probs[m - 1];
          --m;
        } while (m > 0 && vals[m - 1] > v);
        vals[m] = v;
        probs[m] = p;
      }
      return n;
    }
  }

  // Fallback for the degenerate / skewed cases above.
  s.pairs.resize(n);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < nx; ++i) {
    const double xv = xs[i].value;
    const double xp = xs[i].prob;
    for (std::size_t j = 0; j < ny; ++j) {
      s.pairs[idx++] = Impulse{xv + ys[j].value, xp * ys[j].prob};
    }
  }
  std::sort(s.pairs.begin(), s.pairs.end(),
            [](const Impulse& a, const Impulse& b) { return a.value < b.value; });
  for (std::size_t k = 0; k < n; ++k) {
    vals[k] = s.pairs[k].value;
    probs[k] = s.pairs[k].prob;
  }
  return n;
}

/// Drops non-positive probabilities (products can underflow to zero) and
/// merges exactly-equal adjacent values, left-folding their probabilities —
/// the same rules FromImpulses applies. Returns the new length. Only called
/// when FoldAndCheck flagged a defect.
std::size_t CoalesceSortedSoA(double* vals, double* probs, std::size_t n) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (probs[i] <= 0.0) continue;
    if (w > 0 && vals[w - 1] == vals[i]) {
      probs[w - 1] += probs[i];
    } else {
      vals[w] = vals[i];
      probs[w] = probs[i];
      ++w;
    }
  }
  return w;
}

/// The shared compaction kernel (see Pmf::Compact for the algorithm): greedy
/// run merging with the (max_impulses - 1) largest gaps as boundaries. The
/// caller guarantees n > max_impulses >= 1; `out` is overwritten. All
/// arithmetic matches the pre-fusion Pmf::Compact exactly, which the golden
/// paper-grid fixture depends on.
///
/// This is the back half: it folds each run between the boundaries that
/// SelectBoundaries left in Scratch().hist (ascending; none when
/// max_impulses is 1) into one impulse, in order. A run of one impulse
/// merges to (q·v)/q, which can round onto or past the neighbouring double,
/// so when a boundary sits on a one-ulp gap a merged value can be equal to,
/// or just below, the one before it. Such an impulse joins the one before
/// it, probabilities summed in order, so the support stays strictly
/// increasing; nothing else changes.
template <bool kNormalize>
void CompactFromTopGaps(const double* vals, const double* probs,
                        std::size_t n, std::size_t max_impulses,
                        ImpulseVec& out, double divisor) {
  obs::Bump(&obs::Counters::pmf_compactions);
  out.clear();
  out.reserve(max_impulses);
  const std::uint32_t* const kept = Scratch().hist.data();
  std::size_t run_start = 0;
  for (std::size_t b = 0; b < max_impulses; ++b) {
    const std::size_t run_end = b + 1 < max_impulses ? kept[b] + 1 : n;
    const Impulse merged =
        MergeRun<kNormalize>(vals, probs, run_start, run_end, divisor);
    if (b > 0 && merged.value <= out.back().value) [[unlikely]] {
      out.back().prob += merged.prob;
    } else {
      out.push_back(merged);
    }
    run_start = run_end;
  }
  ECDRA_ASSERT(out.size() <= max_impulses, "compaction overshot its bound");
}

template <bool kNormalize>
void CompactSoA(const double* vals, const double* probs, std::size_t n,
                std::size_t max_impulses, ImpulseVec& out, double divisor) {
  if (max_impulses >= 2) {
    (void)SelectBoundaries<false>(vals, probs, n, max_impulses - 1,
                                  Scratch());
  }
  CompactFromTopGaps<kNormalize>(vals, probs, n, max_impulses, out, divisor);
}

/// AoS entry point for the cold callers (FromImpulses, Pmf::Compact):
/// stages the impulses into the SoA scratch, then runs the shared kernel.
/// `in` must not point into the scratch arrays.
void CompactInto(const Impulse* in, std::size_t n, std::size_t max_impulses,
                 ImpulseVec& out) {
  PmfScratch& s = Scratch();
  s.vals.resize(n);
  s.probs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.vals[i] = in[i].value;
    s.probs[i] = in[i].prob;
  }
  CompactSoA<false>(s.vals.data(), s.probs.data(), n, max_impulses, out,
                    /*divisor=*/1.0);
}

/// Builds an ImpulseVec from the SoA arrays (the no-compaction exit of the
/// convolution pipeline; n is at most max_impulses there).
void AssignSoA(ImpulseVec& out, const double* vals, const double* probs,
               std::size_t n) {
  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(Impulse{vals[i], probs[i]});
}

/// Restores the strictly-increasing support invariant after an affine value
/// transform: a large shift (or extreme scale factor) can absorb the gap
/// between adjacent support values into exactly-equal doubles, which every
/// downstream consumer of the class invariant would mis-handle. Adjacent
/// equal values are merged by summing their probabilities, the same
/// coalescing rule FromImpulses applies.
void CoalesceEqualValuesInPlace(ImpulseVec& impulses) {
  Impulse* const base = impulses.data();
  const std::size_t n = impulses.size();
  std::size_t i = 1;
  while (i < n && base[i - 1].value != base[i].value) ++i;
  if (i == n) return;  // common case: no FP absorption happened
  std::size_t out = i - 1;
  for (; i < n; ++i) {
    if (base[out].value == base[i].value) {
      base[out].prob += base[i].prob;
    } else {
      base[++out] = base[i];
    }
  }
  impulses.truncate(out + 1);
}

}  // namespace

KthLargest SelectKthLargest(std::span<double> values, std::size_t k) {
  ECDRA_ASSERT(k >= 1 && k <= values.size(), "rank out of range");
  // Clearing the sign bit orders -0.0 with +0.0.
  const auto key = [](double v) {
    return std::bit_cast<std::uint64_t>(v) & ~(std::uint64_t{1} << 63);
  };
  double* const data = values.data();
  std::size_t n = values.size();
  std::uint64_t low = ~std::uint64_t{0};
  std::uint64_t high = 0;
  for (std::size_t i = 0; i < n; ++i) {
    low = std::min(low, key(data[i]));
    high = std::max(high, key(data[i]));
  }
  // Invariant: the answer is the rank-th largest of data[0, n), whose keys
  // all lie in [low, high]. Each pass buckets key - low by its eight bits
  // from the highest bit of high - low down, so the first pass spreads over
  // the whole range even when it crosses a power of two, and keeps the
  // bucket that holds the answer: the range shrinks at least 128-fold.
  std::size_t rank = k;
  while (low != high) {
    const int shift =
        std::max(static_cast<int>(std::bit_width(high - low)) - 8, 0);
    std::array<std::uint32_t, 256> count{};
    for (std::size_t i = 0; i < n; ++i) ++count[(key(data[i]) - low) >> shift];
    // The largest value's digit is the highest non-empty one.
    std::uint64_t digit = (high - low) >> shift;
    while (count[digit] < rank) rank -= count[digit--];
    // Keep the values in that digit, without a branch: which ones match is
    // data-dependent, so a branch would mispredict about half the time.
    const std::uint64_t base = low;
    std::size_t m = 0;
    low = ~std::uint64_t{0};
    high = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t bits = key(data[i]);
      const bool match = (bits - base) >> shift == digit;
      data[m] = data[i];
      m += static_cast<std::size_t>(match);
      low = std::min(low, match ? bits : ~std::uint64_t{0});
      high = std::max(high, match ? bits : 0);
    }
    n = m;
  }
  return KthLargest{std::bit_cast<double>(high), rank};
}

Pmf Pmf::Delta(double value) {
  ImpulseVec one;
  one.push_back(Impulse{value, 1.0});
  return Pmf(std::move(one));
}

Pmf Pmf::FromImpulses(std::vector<Impulse> impulses,
                      std::size_t max_impulses) {
  ECDRA_REQUIRE(max_impulses >= 1, "max_impulses must be at least 1");
  std::erase_if(impulses, [](const Impulse& imp) { return imp.prob <= 0.0; });
  ECDRA_REQUIRE(!impulses.empty(),
                "pmf needs at least one positive-probability impulse");
  for (const Impulse& imp : impulses) {
    ECDRA_REQUIRE(std::isfinite(imp.value) && std::isfinite(imp.prob),
                  "pmf impulses must be finite");
  }
  std::sort(impulses.begin(), impulses.end(),
            [](const Impulse& a, const Impulse& b) { return a.value < b.value; });
  // Coalesce exactly-equal values.
  std::vector<Impulse> merged;
  merged.reserve(impulses.size());
  for (const Impulse& imp : impulses) {
    if (!merged.empty() && merged.back().value == imp.value) {
      merged.back().prob += imp.prob;
    } else {
      merged.push_back(imp);
    }
  }
  NormalizeMass(merged.data(), merged.size());
  Pmf result;
  if (merged.size() <= max_impulses) {
    result.impulses_.assign(merged.data(), merged.size());
  } else {
    CompactInto(merged.data(), merged.size(), max_impulses, result.impulses_);
  }
  DeepCheck(result, "from-impulses");
  return result;
}

double Pmf::Min() const {
  ECDRA_REQUIRE(!empty(), "Min of empty pmf");
  return impulses_.front().value;
}

double Pmf::Max() const {
  ECDRA_REQUIRE(!empty(), "Max of empty pmf");
  return impulses_.back().value;
}

double Pmf::Expectation() const {
  ECDRA_REQUIRE(!empty(), "Expectation of empty pmf");
  double acc = 0.0;
  for (const Impulse& imp : impulses_) acc += imp.value * imp.prob;
  return acc;
}

double Pmf::Variance() const {
  const double mean = Expectation();
  double acc = 0.0;
  for (const Impulse& imp : impulses_) {
    const double d = imp.value - mean;
    acc += d * d * imp.prob;
  }
  return acc;
}

double Pmf::CdfAt(double t) const {
  ECDRA_REQUIRE(!empty(), "CdfAt of empty pmf");
  double acc = 0.0;
  for (const Impulse& imp : impulses_) {
    if (imp.value > t) break;
    acc += imp.prob;
  }
  return std::min(acc, 1.0);
}

double Pmf::CdfQuantile(double p) const {
  ECDRA_REQUIRE(!empty(), "CdfQuantile of empty pmf");
  // CdfAt(t) >= 0 answers every p <= 0 (and no comparison with NaN holds):
  // no t is below, which only -inf expresses.
  if (!(p > 0.0)) return -std::numeric_limits<double>::infinity();
  double acc = 0.0;
  for (const Impulse& imp : impulses_) {
    acc += imp.prob;
    if (std::min(acc, 1.0) >= p) return imp.value;
  }
  return std::numeric_limits<double>::infinity();
}

Pmf Pmf::Shift(double dt) const {
  Pmf shifted = *this;
  shifted.ShiftInPlace(dt);
  return shifted;
}

void Pmf::ShiftInPlace(double dt) {
  ECDRA_REQUIRE(!empty(), "Shift of empty pmf");
  ECDRA_REQUIRE(std::isfinite(dt), "shift offset must be finite");
  Impulse* const base = impulses_.data();
  const std::size_t n = impulses_.size();
  base[0].value += dt;
  bool collapsed = false;
  for (std::size_t i = 1; i < n; ++i) {
    base[i].value += dt;
    collapsed |= base[i].value == base[i - 1].value;
  }
  if (collapsed) [[unlikely]] CoalesceEqualValuesInPlace(impulses_);
  DeepCheck(*this, "shift");
}

Pmf Pmf::ScaleValues(double factor) const {
  Pmf scaled = *this;
  scaled.ScaleValuesInPlace(factor);
  return scaled;
}

void Pmf::ScaleValuesInPlace(double factor) {
  ECDRA_REQUIRE(!empty(), "ScaleValues of empty pmf");
  ECDRA_REQUIRE(std::isfinite(factor) && factor > 0.0,
                "scale factor must be positive");
  Impulse* const base = impulses_.data();
  const std::size_t n = impulses_.size();
  base[0].value *= factor;
  bool collapsed = false;
  for (std::size_t i = 1; i < n; ++i) {
    base[i].value *= factor;
    collapsed |= base[i].value == base[i - 1].value;
  }
  if (collapsed) [[unlikely]] CoalesceEqualValuesInPlace(impulses_);
  DeepCheck(*this, "scale-values");
}

TruncateResult Pmf::TruncateBelow(double t) const {
  // Built in place: moving a small-buffer Pmf into the aggregate would copy
  // the inline impulses a second time.
  TruncateResult result{*this, 0.0};
  result.retained_mass = result.pmf.TruncateBelowInPlace(t);
  return result;
}

double Pmf::TruncateBelowInPlace(double t) {
  ECDRA_REQUIRE(!empty(), "TruncateBelow of empty pmf");
  obs::Bump(&obs::Counters::pmf_truncations);
  const Impulse* const base = impulses_.data();
  const std::size_t n = impulses_.size();
  std::size_t first = 0;
  while (first < n && base[first].value < t) ++first;
  double retained = 0.0;
  for (std::size_t i = first; i < n; ++i) retained += base[i].prob;
  if (first == n || retained <= kMassTolerance) {
    // The model's entire predicted completion window is in the past — or
    // what survives is at most kMassTolerance, too little to renormalize
    // into a meaningful distribution: treat completion as imminent (§IV-B
    // boundary case). The reported retained mass is the true sum over the
    // surviving impulses (exactly 0.0 only when nothing survived), never
    // zeroed just because the Delta fallback was taken.
    impulses_.clear();
    impulses_.push_back(Impulse{t, 1.0});
    return retained;
  }
  impulses_.remove_prefix(first);
  for (Impulse& imp : impulses_) imp.prob /= retained;
  DeepCheck(*this, "truncate");
  return retained;
}

double Pmf::Sample(double u) const {
  ECDRA_REQUIRE(!empty(), "Sample of empty pmf");
  double acc = 0.0;
  for (const Impulse& imp : impulses_) {
    acc += imp.prob;
    if (u <= acc) return imp.value;
  }
  return impulses_.back().value;  // guard against rounding at u ~= 1
}

Pmf Pmf::Compact(std::size_t max_impulses) const {
  ECDRA_REQUIRE(max_impulses >= 1, "max_impulses must be at least 1");
  if (impulses_.size() <= max_impulses) return *this;
  Pmf result;
  CompactInto(impulses_.data(), impulses_.size(), max_impulses,
              result.impulses_);
  DeepCheck(result, "compact");
  return result;
}

void ConvolveInto(const Pmf& x, const Pmf& y, std::size_t max_impulses,
                  Pmf& out) {
  ECDRA_REQUIRE(!x.empty() && !y.empty(), "Convolve of empty pmf");
  ECDRA_REQUIRE(max_impulses >= 1, "max_impulses must be at least 1");
  obs::Bump(&obs::Counters::pmf_convolutions);
  PmfScratch& s = Scratch();
  std::size_t n = SortCrossProduct(x.impulses(), y.impulses(), s);
  // One pass both sums the mass and checks for non-positive probabilities or
  // equal adjacent values; products of valid impulse probabilities are
  // positive, so a defect only appears when floating-point addition collapsed
  // two sums to the same value — rare enough to pay for a recoalesce + refold.
  // When the result will be compacted (the dominant case), the same pass
  // also collects the boundary candidates, saving a re-stream of vals.
  // Selection needs finite gaps, and a sum that overflowed makes an
  // inf - inf gap, so a cross product with an infinite endpoint takes the
  // plain fold and the finiteness check below.
  const bool fuse_select = n > max_impulses && max_impulses >= 2 &&
                           std::isfinite(s.vals[0]) &&
                           std::isfinite(s.vals[n - 1]);
  FoldResult fold =
      fuse_select ? SelectBoundaries<true>(s.vals.data(), s.probs.data(), n,
                                           max_impulses - 1, s)
                  : FoldAndCheck(s.vals.data(), s.probs.data(), n);
  bool preselected = fuse_select;
  if (fold.needs_coalesce) [[unlikely]] {
    n = CoalesceSortedSoA(s.vals.data(), s.probs.data(), n);
    ECDRA_REQUIRE(n > 0, "pmf needs at least one positive-probability impulse");
    fold.mass = TotalMassSoA(s.probs.data(), n);
    preselected = false;  // coalescing moved values; boundaries are stale
  }
  // Values ascend, so the two endpoints being finite bounds every interior
  // sum; probabilities are products in (0, 1] and cannot overflow.
  ECDRA_REQUIRE(std::isfinite(s.vals[0]) && std::isfinite(s.vals[n - 1]),
                "pmf impulses must be finite");
  ECDRA_ASSERT(fold.mass > 0.0, "cannot normalize a zero-mass pmf");
  // All reads of x and y are done; only now touch out, so `out` may alias
  // either input (suffix-convolution chains rely on this). The compacting
  // paths never materialize normalized probabilities: MergeRun divides each
  // one by the total mass as it folds, producing the same bits a separate
  // normalization pass would have stored.
  if (n <= max_impulses) {
    double* const probs = s.probs.data();
    const double mass = fold.mass;
    for (std::size_t i = 0; i < n; ++i) probs[i] /= mass;
    AssignSoA(out.impulses_, s.vals.data(), probs, n);
  } else if (preselected) {
    CompactFromTopGaps<true>(s.vals.data(), s.probs.data(), n, max_impulses,
                             out.impulses_, fold.mass);
  } else {
    CompactSoA<true>(s.vals.data(), s.probs.data(), n, max_impulses,
                     out.impulses_, fold.mass);
  }
  DeepCheck(out, "convolve");
}

Pmf Convolve(const Pmf& x, const Pmf& y, std::size_t max_impulses) {
  Pmf result;
  ConvolveInto(x, y, max_impulses, result);
  return result;
}

void MaxInto(const Pmf& x, const Pmf& y, std::size_t max_impulses, Pmf& out) {
  ECDRA_REQUIRE(max_impulses >= 1, "max_impulses must be at least 1");
  ECDRA_REQUIRE(!x.empty() || !y.empty(), "Max of two empty pmfs");
  // Empty acts as the identity (the max over zero siblings) so a gang fold
  // can start from a default-constructed accumulator.
  if (x.empty() || y.empty()) {
    const Pmf& src = x.empty() ? y : x;
    if (&out != &src) out = src;
    return;
  }
  obs::Bump(&obs::Counters::pmf_max_ops);
  // P(max(X, Y) <= t) = F_X(t) * F_Y(t). Sweep the union support ascending,
  // carrying both running CDFs; each union value contributes the increment
  // of the CDF product. Values where one factor is still zero contribute
  // nothing and are skipped, so the result's support starts at
  // max(x.Min(), y.Min()).
  PmfScratch& s = Scratch();
  const auto xs = x.impulses();
  const auto ys = y.impulses();
  s.vals.resize(xs.size() + ys.size());
  s.probs.resize(xs.size() + ys.size());
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t n = 0;
  double fx = 0.0;
  double fy = 0.0;
  double prev_cdf = 0.0;
  while (i < xs.size() || j < ys.size()) {
    const bool from_x =
        j == ys.size() || (i < xs.size() && xs[i].value <= ys[j].value);
    const double v = from_x ? xs[i].value : ys[j].value;
    if (i < xs.size() && xs[i].value == v) fx += xs[i++].prob;
    if (j < ys.size() && ys[j].value == v) fy += ys[j++].prob;
    const double cdf = fx * fy;
    const double prob = cdf - prev_cdf;
    prev_cdf = cdf;
    if (prob > 0.0) {
      s.vals[n] = v;
      s.probs[n] = prob;
      ++n;
    }
  }
  // The last union value completes both CDFs, so its increment is positive
  // and the result is never empty; the total mass is the telescoped product
  // of the two input masses.
  ECDRA_ASSERT(n > 0 && prev_cdf > 0.0, "max produced an empty pmf");
  ECDRA_REQUIRE(std::isfinite(s.vals[0]) && std::isfinite(s.vals[n - 1]),
                "pmf impulses must be finite");
  // All reads of x and y are done; only now touch out, so `out` may alias
  // either input, mirroring ConvolveInto.
  if (n <= max_impulses) {
    double* const probs = s.probs.data();
    for (std::size_t k = 0; k < n; ++k) probs[k] /= prev_cdf;
    AssignSoA(out.impulses_, s.vals.data(), probs, n);
  } else {
    CompactSoA<true>(s.vals.data(), s.probs.data(), n, max_impulses,
                     out.impulses_, prev_cdf);
  }
  DeepCheck(out, "max");
}

Pmf MaxOf(const Pmf& x, const Pmf& y, std::size_t max_impulses) {
  Pmf result;
  MaxInto(x, y, max_impulses, result);
  return result;
}

double ProbSumLeq(const Pmf& x, const Pmf& y, double t) {
  ECDRA_REQUIRE(!x.empty() && !y.empty(), "ProbSumLeq of empty pmf");
  obs::Bump(&obs::Counters::pmf_prob_sum_leq);
  // P(X + Y <= t) = sum_i P(X = x_i) * F_Y(t - x_i). As x_i ascends the
  // evaluation point t - x_i descends, so a single backwards sweep over Y's
  // suffix suffices.
  const auto xs = x.impulses();
  const auto ys = y.impulses();
  std::size_t j = ys.size();
  double y_cdf = 1.0;  // P(Y <= ys[j-1].value) for the current j
  double acc = 0.0;
  for (const Impulse& xi : xs) {
    const double limit = t - xi.value;
    while (j > 0 && ys[j - 1].value > limit) {
      y_cdf -= ys[j - 1].prob;
      --j;
    }
    if (j == 0) break;  // every remaining x_i is larger, contributes nothing
    acc += xi.prob * y_cdf;
  }
  return std::clamp(acc, 0.0, 1.0);
}

void ValidatePmfInvariants(const Pmf& pmf, std::string_view op) {
  validate::TrialValidator* validator = validate::ActiveValidator();
  if (validator == nullptr) return;
  validator->CountChecks(2);  // mass conservation + support ordering

  const auto impulses = pmf.impulses();
  if (impulses.empty()) {
    validator->Fail("pmf-support", -1.0,
                    std::string(op) + " produced an empty pmf");
    return;
  }
  const double mass = TotalMass(impulses.data(), impulses.size());
  if (!(std::fabs(mass - 1.0) <= Pmf::kMassTolerance)) {
    std::ostringstream os;
    os << op << " lost probability mass: |mass - 1| = "
       << std::fabs(mass - 1.0) << " > " << Pmf::kMassTolerance;
    validator->Fail("pmf-mass", -1.0, os.str());
  }
  for (std::size_t i = 0; i < impulses.size(); ++i) {
    const bool ordered = i == 0 || impulses[i - 1].value < impulses[i].value;
    if (!ordered || !(impulses[i].prob > 0.0) ||
        !std::isfinite(impulses[i].value) || !std::isfinite(impulses[i].prob)) {
      std::ostringstream os;
      os << op << " broke the support invariant at impulse " << i << " ("
         << impulses[i].value << ", " << impulses[i].prob << ")";
      validator->Fail("pmf-support", -1.0, os.str());
      break;
    }
  }
}

std::ostream& operator<<(std::ostream& os, const Pmf& pmf) {
  os << "Pmf{";
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    if (i != 0) os << ", ";
    os << "(" << pmf.impulses()[i].value << ", " << pmf.impulses()[i].prob
       << ")";
  }
  return os << "}";
}

}  // namespace ecdra::pmf
