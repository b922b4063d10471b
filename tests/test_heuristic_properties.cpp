// Property tests: each heuristic's defining invariant must hold on
// randomized environments — random clusters, random ETC matrices, random
// core-queue states, random tasks — not just on the hand-built fixtures.
// The exact-pick tests also run each scene all idle, where ECT, ready-time
// and queue-length ties abound.
#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_builder.hpp"
#include "core/factory.hpp"
#include "core/mapping_context.hpp"
#include "econ/econ_model.hpp"
#include "robustness/core_queue_model.hpp"
#include "util/rng.hpp"
#include "workload/etc_matrix.hpp"
#include "workload/task_type_table.hpp"

namespace ecdra::core {
namespace {

/// A randomized scheduling scene: small cluster, pmf table, busy cores (or
/// none, when `idle`).
class Scene {
 public:
  explicit Scene(std::uint64_t seed, bool idle = false) : rng_(seed) {
    cluster::ClusterBuilderOptions cluster_options;
    cluster_options.num_nodes = 3;
    cluster_options.max_processors = 2;
    cluster_options.max_cores_per_processor = 2;
    util::RngStream cluster_rng = rng_.Substream("cluster");
    cluster_.emplace(cluster::BuildRandomCluster(cluster_rng, cluster_options));

    workload::CvbOptions cvb;
    cvb.num_task_types = 4;
    cvb.num_machines = cluster_->num_nodes();
    util::RngStream etc_rng = rng_.Substream("etc");
    table_.emplace(*cluster_, workload::GenerateCvbMatrix(etc_rng, cvb), 0.25);

    cores_.resize(cluster_->total_cores());
    // Randomly load some cores with running + queued work.
    for (std::size_t flat = 0; flat < cores_.size(); ++flat) {
      const std::int64_t depth = idle ? 0 : rng_.UniformInt(0, 3);
      for (std::int64_t i = 0; i < depth; ++i) {
        const auto type = static_cast<std::size_t>(rng_.UniformInt(0, 3));
        const auto pstate = static_cast<cluster::PStateIndex>(
            rng_.UniformInt(0, cluster::kNumPStates - 1));
        const pmf::Pmf* exec =
            &table_->ExecPmf(type, cluster_->NodeIndexOf(flat), pstate);
        const robustness::ModeledTask task{next_id_++, exec,
                                           rng_.UniformReal(500.0, 4000.0)};
        if (cores_[flat].idle()) {
          cores_[flat].StartTask(task, 0.0);
        } else {
          cores_[flat].Enqueue(task);
        }
      }
    }
    task_ = workload::Task{next_id_++, static_cast<std::size_t>(
                                           rng_.UniformInt(0, 3)),
                           now_, now_ + rng_.UniformReal(800.0, 3000.0)};
  }

  [[nodiscard]] MappingContext Context() {
    return MappingContext(*cluster_, *table_, cores_, task_, now_);
  }
  [[nodiscard]] workload::Task& task() { return task_; }

 private:
  util::RngStream rng_;
  std::optional<cluster::Cluster> cluster_;
  std::optional<workload::TaskTypeTable> table_;
  std::vector<robustness::CoreQueueModel> cores_;
  workload::Task task_;
  double now_ = 100.0;
  std::size_t next_id_ = 0;
};

class HeuristicInvariants : public ::testing::TestWithParam<std::uint64_t> {};

/// The first candidate whose key is smallest: a plain scan that replaces
/// the incumbent only on a strictly smaller key.
template <typename Key>
const Candidate& FirstArgmin(const std::vector<Candidate>& candidates,
                             Key key) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (key(candidates[i]) < key(candidates[best])) best = i;
  }
  return candidates[best];
}

/// A heuristic's documented key as a lexicographic pair (queue lengths and
/// P-state indices are small integers, exact as doubles).
using PairKey =
    std::function<std::pair<double, double>(const MappingContext&,
                                            const Candidate&)>;

/// econ-greedy: the largest (value * rho - price * EEC) / EEC, ties toward
/// the lower EEC.
PairKey EconGreedyKey(double price) {
  return [price](const MappingContext& ctx, const Candidate& c) {
    const double eec = std::max(c.eec, 1e-12);
    const double score =
        (ctx.task().value * ctx.OnTimeProbability(c) - price * eec) / eec;
    return std::pair(-score, c.eec);
  };
}

const std::vector<std::pair<const char*, PairKey>>& DocumentedKeys() {
  static const std::vector<std::pair<const char*, PairKey>> keys{
      {"SQ",
       [](const MappingContext& ctx, const Candidate& c) {
         return std::pair(static_cast<double>(ctx.QueueLength(c)), c.eet);
       }},
      {"MECT",
       [](const MappingContext& ctx, const Candidate& c) {
         return std::pair(ctx.ExpectedCompletionTime(c), 0.0);
       }},
      {"LL",
       [](const MappingContext& ctx, const Candidate& c) {
         return std::pair(c.eec * (1.0 - ctx.OnTimeProbability(c)), 0.0);
       }},
      {"OLB",
       [](const MappingContext& ctx, const Candidate& c) {
         return std::pair(ctx.ExpectedCompletionTime(c) - c.eet,
                          -static_cast<double>(c.assignment.pstate));
       }},
      {"MET",
       [](const MappingContext&, const Candidate& c) {
         return std::pair(c.eet, 0.0);
       }},
      // The trivial model: value and price 0, so every score is 0.
      {"econ-greedy", EconGreedyKey(0.0)},
  };
  return keys;
}

TEST_P(HeuristicInvariants, KeyedPicksAreTheFirstMinimumOfTheirKey) {
  for (const bool idle : {false, true}) {
    Scene scene(GetParam(), idle);
    for (const auto& [name, key] : DocumentedKeys()) {
      MappingContext ctx = scene.Context();
      const auto chosen = MakeHeuristic(name, util::RngStream(1))->Select(ctx);
      ASSERT_TRUE(chosen.has_value()) << name;
      const Candidate& expected =
          FirstArgmin(ctx.candidates(),
                      [&](const Candidate& c) { return key(ctx, c); });
      EXPECT_EQ(chosen->assignment, expected.assignment)
          << name << (idle ? " (idle scene)" : "");
    }
  }
}

TEST_P(HeuristicInvariants, EconGreedyPicksTheFirstBestProfitDensity) {
  econ::EconModel model;
  model.type_values = {40.0, 5.0, 120.0, 15.0};
  model.energy_price = 2e-5;
  for (const bool idle : {false, true}) {
    Scene scene(GetParam(), idle);
    scene.task().value = model.ValueForType(scene.task().type);
    MappingContext ctx = scene.Context();
    ctx.SetEconView(&model);
    const auto chosen =
        MakeHeuristic("econ-greedy", util::RngStream(1))->Select(ctx);
    ASSERT_TRUE(chosen.has_value());
    const PairKey key = EconGreedyKey(model.energy_price);
    const Candidate& expected = FirstArgmin(
        ctx.candidates(), [&](const Candidate& c) { return key(ctx, c); });
    EXPECT_EQ(chosen->assignment, expected.assignment)
        << (idle ? "idle scene" : "");
  }
}

TEST_P(HeuristicInvariants, KpbPicksTheFirstMinimumEctOfTheKeptSet) {
  for (const bool idle : {false, true}) {
    Scene scene(GetParam(), idle);
    MappingContext ctx = scene.Context();
    const auto chosen = MakeHeuristic("KPB", util::RngStream(1))->Select(ctx);
    ASSERT_TRUE(chosen.has_value());
    // The ceil(30%) smallest-EET candidates, in the order nth_element
    // leaves them.
    std::vector<Candidate> kept = ctx.candidates();
    const auto keep = static_cast<std::size_t>(
        std::ceil(static_cast<double>(kept.size()) * 30.0 / 100.0));
    std::nth_element(kept.begin(), kept.begin() + (keep - 1), kept.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.eet < b.eet;
                     });
    kept.resize(keep);
    const auto ect = [&ctx](const Candidate& c) {
      return ctx.ExpectedCompletionTime(c);
    };
    double min_ect = ect(kept.front());
    for (const Candidate& c : kept) min_ect = std::min(min_ect, ect(c));
    EXPECT_EQ(ect(*chosen), min_ect) << (idle ? "idle scene" : "");
    EXPECT_EQ(chosen->assignment, FirstArgmin(kept, ect).assignment)
        << (idle ? "idle scene" : "");
  }
}

TEST_P(HeuristicInvariants, SqChoiceHasMinimalQueueLength) {
  Scene scene(GetParam());
  MappingContext ctx = scene.Context();
  const auto chosen = MakeHeuristic("SQ", util::RngStream(1))->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  const std::size_t chosen_len = ctx.QueueLength(*chosen);
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_GE(ctx.QueueLength(candidate), chosen_len);
  }
}

TEST_P(HeuristicInvariants, MectChoiceHasMinimalExpectedCompletion) {
  Scene scene(GetParam());
  MappingContext ctx = scene.Context();
  const auto chosen = MakeHeuristic("MECT", util::RngStream(1))->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  const double chosen_ect = ctx.ExpectedCompletionTime(*chosen);
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_GE(ctx.ExpectedCompletionTime(candidate) + 1e-9, chosen_ect);
  }
}

TEST_P(HeuristicInvariants, LlChoiceHasMinimalLoad) {
  Scene scene(GetParam());
  MappingContext ctx = scene.Context();
  const auto chosen = MakeHeuristic("LL", util::RngStream(1))->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  const double chosen_load =
      chosen->eec * (1.0 - ctx.OnTimeProbability(*chosen));
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_GE(candidate.eec * (1.0 - ctx.OnTimeProbability(candidate)) + 1e-9,
              chosen_load);
  }
}

TEST_P(HeuristicInvariants, MetChoiceHasMinimalExecutionTime) {
  Scene scene(GetParam());
  MappingContext ctx = scene.Context();
  const auto chosen = MakeHeuristic("MET", util::RngStream(1))->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_GE(candidate.eet + 1e-12, chosen->eet);
  }
}

TEST_P(HeuristicInvariants, OlbChoiceHasMinimalReadyTime) {
  Scene scene(GetParam());
  MappingContext ctx = scene.Context();
  const auto chosen = MakeHeuristic("OLB", util::RngStream(1))->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  const double chosen_ready =
      ctx.ExpectedCompletionTime(*chosen) - chosen->eet;
  for (const Candidate& candidate : ctx.candidates()) {
    EXPECT_GE(ctx.ExpectedCompletionTime(candidate) - candidate.eet + 1e-9,
              chosen_ready);
  }
}

TEST_P(HeuristicInvariants, KpbChoiceIsWithinTheKPercentFastest) {
  Scene scene(GetParam());
  MappingContext ctx = scene.Context();
  const double percent = 30.0;
  const auto chosen = MakeHeuristic("KPB", util::RngStream(1))->Select(ctx);
  ASSERT_TRUE(chosen.has_value());
  // The chosen EET must be within the k% fastest EETs.
  std::vector<double> eets;
  eets.reserve(ctx.candidates().size());
  for (const Candidate& candidate : ctx.candidates()) {
    eets.push_back(candidate.eet);
  }
  std::sort(eets.begin(), eets.end());
  const auto keep = static_cast<std::size_t>(
      std::ceil(static_cast<double>(eets.size()) * percent / 100.0));
  EXPECT_LE(chosen->eet, eets[keep - 1] + 1e-12);
}

TEST_P(HeuristicInvariants, FiltersOnlyRemoveCandidates) {
  Scene scene(GetParam());
  MappingContext unfiltered = scene.Context();
  const std::vector<Candidate> before = unfiltered.candidates();

  Scene scene2(GetParam());
  MappingContext filtered = scene2.Context();
  filtered.SetBudgetView(5e5, 10);
  for (const auto& filter : MakeFilterChain("en+rob")) {
    filter->Apply(filtered);
  }
  // Every survivor must exist in the unfiltered set (filters are a subset
  // operation; they never invent or mutate candidates).
  for (const Candidate& survivor : filtered.candidates()) {
    bool found = false;
    for (const Candidate& original : before) {
      if (original.assignment == survivor.assignment &&
          original.eet == survivor.eet) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_LE(filtered.candidates().size(), before.size());
}

INSTANTIATE_TEST_SUITE_P(RandomScenes, HeuristicInvariants,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace ecdra::core
