// The built-in immediate-mode heuristics and the heuristic registry. Each
// minimizing heuristic is one key: the task goes to FirstMinimum(candidates,
// key), the first feasible (core, P-state) in candidate order (core-major,
// then P-state) with the smallest key, so every choice is deterministic.
// KPB (core/kpb.hpp) and Random are not one argmin. The registry accessor
// and MakeHeuristic live here: every caller references them, so static
// libraries always keep this object file and the registrations in it.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "core/factory.hpp"
#include "core/kpb.hpp"

namespace ecdra::core {

namespace {

/// A heuristic that is one FirstMinimum call; `Key` maps
/// (const MappingContext&, const Candidate&) to the value minimized, and
/// `floor`, when set, is a value no key falls below.
template <typename Key>
class KeyedHeuristic final : public Heuristic {
 public:
  using Value = std::invoke_result_t<const Key&, const MappingContext&,
                                     const Candidate&>;

  KeyedHeuristic(std::string_view name, Key key, std::optional<Value> floor)
      : name_(name), key_(key), floor_(floor) {}

  [[nodiscard]] std::optional<Candidate> Select(
      const MappingContext& ctx) override {
    return FirstMinimum(
        ctx.candidates(),
        [this, &ctx](const Candidate& c) { return key_(ctx, c); }, floor_);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }

 private:
  std::string_view name_;
  [[no_unique_address]] Key key_;
  std::optional<Value> floor_;
};

/// Registers `name` (a string literal) as the heuristic minimizing `key`,
/// whose values never fall below `floor` when one is given.
template <typename Key>
void RegisterKeyed(
    std::string_view name, Key key,
    std::optional<typename KeyedHeuristic<Key>::Value> floor = std::nullopt) {
  HeuristicRegistry().Register(
      std::string(name), [name, key, floor](util::RngStream) {
        return std::make_unique<KeyedHeuristic<Key>>(name, key, floor);
      });
}

/// Random (§V-E): a uniformly random choice among the feasible assignments,
/// the contrast case that shows the filters, not the heuristic, drive
/// performance. The stream is a trial-specific substream.
class RandomHeuristic final : public Heuristic {
 public:
  explicit RandomHeuristic(util::RngStream rng) : rng_(std::move(rng)) {}

  [[nodiscard]] std::optional<Candidate> Select(
      const MappingContext& ctx) override {
    const auto& candidates = ctx.candidates();
    if (candidates.empty()) return std::nullopt;
    return candidates[static_cast<std::size_t>(rng_.UniformInt(
        0, static_cast<std::int64_t>(candidates.size()) - 1))];
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "Random";
  }

 private:
  util::RngStream rng_;
};

}  // namespace

HeuristicRegistryType& HeuristicRegistry() {
  static HeuristicRegistryType registry("heuristic");
  return registry;
}

std::unique_ptr<Heuristic> MakeHeuristic(std::string_view name,
                                         util::RngStream rng) {
  return HeuristicRegistry().Make(name, std::move(rng));
}

// Shortest Queue (SQ, §V-B, adapted from [SmC09]): the core with the fewest
// tasks currently assigned, |MQ(i,j,k,t_l)|; queue-length ties go to the
// minimum expected execution time EET(i,j,k,pi,z).
ECDRA_POLICY_REGISTRATION(RegisterKeyed(
    "SQ", [](const MappingContext& ctx, const Candidate& c) {
      return std::pair(ctx.QueueLength(c), c.eet);
    }))

// Minimum Expected Completion Time (MECT, §V-C, from [MaA99]): the smallest
// expectation of the completion-time distribution, ECT(i,j,k,pi,t_l,z).
ECDRA_POLICY_REGISTRATION(RegisterKeyed(
    "MECT", [](const MappingContext& ctx, const Candidate& c) {
      return ctx.ExpectedCompletionTime(c);
    }))

// Lightest Load (LL, §V-D, the paper's heuristic, inspired by [BaM09]): the
// smallest load L(i,j,k,pi,t_l) = EEC(i,j,k,pi,z) * (1 - rho(i,j,k,pi,t_l,z))
// (Eq. 5), expected energy times inverse robustness, which balances energy
// use against the probability of finishing by the deadline. EEC >= 0 and
// rho <= 1, so no load is below 0: once a candidate's load is exactly 0,
// LL takes it without computing rho for the rest.
ECDRA_POLICY_REGISTRATION(RegisterKeyed(
    "LL",
    [](const MappingContext& ctx, const Candidate& c) {
      return c.eec * (1.0 - ctx.OnTimeProbability(c));
    },
    /*floor=*/0.0))

// Opportunistic Load Balancing (OLB, [MaA99]): the core that becomes ready
// soonest (expected ready time = ECT - EET), ignoring the task's own
// execution time; ready-time ties go to the lowest-power (highest-index)
// P-state, which makes it the energy-friendliest classic baseline.
ECDRA_POLICY_REGISTRATION(RegisterKeyed(
    "OLB", [](const MappingContext& ctx, const Candidate& c) {
      return std::pair(ctx.ExpectedCompletionTime(c) - c.eet,
                       -static_cast<int>(c.assignment.pstate));
    }))

// Minimum Execution Time (MET, [MaA99]): the smallest EET(i,j,k,pi,z),
// ignoring queue state entirely. It piles tasks onto whichever node is
// fastest for each type, the failure mode §VI's inconsistent heterogeneity
// exposes.
ECDRA_POLICY_REGISTRATION(RegisterKeyed(
    "MET", [](const MappingContext&, const Candidate& c) { return c.eet; }))

// Profit greedy (econ-greedy, the econ extension; cf. the utility-per-
// resource greedy of Li et al., arXiv:1501.05414): the largest expected
// marginal profit per joule,
//
//   score(c) = (value * rho(c) - price * EEC(c)) / EEC(c),
//
// with the task's tier-scaled value and the model's price per joule.
// Dividing by EEC makes the score a density: under limited budget headroom,
// earning more per joule dominates earning more per task. Score ties go to
// the lower EEC. Under the trivial model value and price are 0, so every
// score is 0 and the cheapest candidate wins.
ECDRA_POLICY_REGISTRATION(RegisterKeyed(
    "econ-greedy", [](const MappingContext& ctx, const Candidate& c) {
      // EEC is strictly positive for any real candidate; the guard keeps
      // the density finite for degenerate zero-energy tables.
      const double eec = std::max(c.eec, 1e-12);
      const double score = (ctx.task().value * ctx.OnTimeProbability(c) -
                            ctx.econ().energy_price * eec) /
                           eec;
      return std::pair(-score, c.eec);
    }))

ECDRA_REGISTER_HEURISTIC("KPB", [](util::RngStream) {
  return std::make_unique<KpbHeuristic>();
})
ECDRA_REGISTER_HEURISTIC("Random", [](util::RngStream rng) {
  return std::make_unique<RandomHeuristic>(std::move(rng));
})

}  // namespace ecdra::core
