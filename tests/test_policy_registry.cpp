// The policy registry layer: registration/diagnostic contracts of the
// generic Registry template, the registry-backed core factories (built-ins
// present, unknown names throw listing the valid keys, composite filter
// variants), and the headline extension path — a heuristic and filter
// registered from *this* translation unit run through the stock RunTrials
// harness by name, with zero factory edits.
#include "policy/registry.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "batch/batch_heuristics.hpp"
#include "cluster/pstate.hpp"
#include "core/factory.hpp"
#include "core/filter.hpp"
#include "core/gang_placement.hpp"
#include "core/heuristic.hpp"
#include "sim/experiment_runner.hpp"

namespace ecdra {
namespace {

struct Widget {
  explicit Widget(int v) : value(v) {}
  int value;
};

using WidgetRegistry = policy::Registry<Widget, int>;

TEST(Registry, RegisterAndMake) {
  WidgetRegistry registry("widget");
  registry.Register("double", [](int v) {
    return std::make_unique<Widget>(2 * v);
  });
  registry.Register("negate", [](int v) {
    return std::make_unique<Widget>(-v);
  });

  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.Contains("double"));
  EXPECT_FALSE(registry.Contains("triple"));
  EXPECT_EQ(registry.Make("double", 21)->value, 42);
  EXPECT_EQ(registry.Make("negate", 5)->value, -5);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"double", "negate"}));
}

TEST(Registry, DuplicateRegistrationThrowsNamingTheKey) {
  WidgetRegistry registry("widget");
  registry.Register("double", [](int v) {
    return std::make_unique<Widget>(2 * v);
  });
  try {
    registry.Register("double", [](int v) {
      return std::make_unique<Widget>(v);
    });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("double"), std::string::npos);
  }
  // The original registration survives the rejected duplicate.
  EXPECT_EQ(registry.Make("double", 10)->value, 20);
}

TEST(Registry, RejectsEmptyNameAndNullFactory) {
  WidgetRegistry registry("widget");
  EXPECT_THROW(registry.Register("", [](int v) {
    return std::make_unique<Widget>(v);
  }),
               std::invalid_argument);
  EXPECT_THROW(registry.Register("ok", nullptr), std::invalid_argument);
}

TEST(Registry, UnknownNameThrowsListingRegisteredKeys) {
  WidgetRegistry registry("widget");
  registry.Register("alpha", [](int v) {
    return std::make_unique<Widget>(v);
  });
  registry.Register("beta", [](int v) {
    return std::make_unique<Widget>(v);
  });
  try {
    (void)registry.Make("gamma", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown widget 'gamma'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("alpha"), std::string::npos) << message;
    EXPECT_NE(message.find("beta"), std::string::npos) << message;
  }
}

TEST(Registry, EmptyRegistryDiagnosticSaysNone) {
  const WidgetRegistry registry("widget");
  try {
    (void)registry.Make("anything", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("<none>"), std::string::npos);
  }
}

// -- The live core/batch registries --

TEST(CoreRegistries, BuiltInsAreRegistered) {
  for (const char* name :
       {"SQ", "MECT", "LL", "OLB", "MET", "KPB", "Random", "econ-greedy"}) {
    EXPECT_TRUE(core::HeuristicRegistry().Contains(name)) << name;
  }
  EXPECT_TRUE(core::FilterRegistry().Contains("en"));
  EXPECT_TRUE(core::FilterRegistry().Contains("rob"));
  for (const std::string& name : batch::BatchHeuristicNames()) {
    EXPECT_TRUE(batch::BatchHeuristicRegistry().Contains(name)) << name;
  }
  for (const char* name : {"pack", "spread", "serial"}) {
    EXPECT_TRUE(core::GangPlacementRegistry().Contains(name)) << name;
  }
}

TEST(CoreRegistries, UnknownGangPlacementDiagnosticListsKeys) {
  try {
    (void)core::MakeGangPlacement("NoSuchPlacement");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("NoSuchPlacement"), std::string::npos) << message;
    EXPECT_NE(message.find("pack"), std::string::npos) << message;
    EXPECT_NE(message.find("serial"), std::string::npos) << message;
  }
}

TEST(CoreRegistries, UnknownHeuristicDiagnosticListsKeys) {
  try {
    (void)core::MakeHeuristic("NoSuchPolicy", util::RngStream(1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("NoSuchPolicy"), std::string::npos) << message;
    EXPECT_NE(message.find("MECT"), std::string::npos) << message;
    EXPECT_NE(message.find("SQ"), std::string::npos) << message;
  }
}

TEST(CoreRegistries, FilterChainComposesRegisteredNames) {
  EXPECT_TRUE(core::MakeFilterChain("none").empty());

  const auto chain = core::MakeFilterChain("en+rob");
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0]->name(), "en");
  EXPECT_EQ(chain[1]->name(), "rob");

  // Order is the variant's order, not registration order.
  const auto reversed = core::MakeFilterChain("rob+en");
  ASSERT_EQ(reversed.size(), 2u);
  EXPECT_EQ(reversed[0]->name(), "rob");

  EXPECT_THROW((void)core::MakeFilterChain("en+"), std::invalid_argument);
  EXPECT_THROW((void)core::MakeFilterChain("+en"), std::invalid_argument);
  EXPECT_THROW((void)core::MakeFilterChain("en+nope"), std::invalid_argument);
}

// -- Extension path: register custom policies from this TU, run by name --

/// Always picks the first candidate (deterministic and trivially wrong on
/// purpose — the point is the wiring, not the schedule quality).
class FirstCandidateHeuristic final : public core::Heuristic {
 public:
  [[nodiscard]] std::optional<core::Candidate> Select(
      const core::MappingContext& ctx) override {
    if (ctx.candidates().empty()) return std::nullopt;
    return ctx.candidates().front();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "TestFirst";
  }
};

/// Keeps only the deepest-P-state candidates of each core (a filter with a
/// visible, checkable effect).
class DeepestPStateFilter final : public core::Filter {
 public:
  void Apply(core::MappingContext& ctx) override {
    std::erase_if(ctx.candidates(), [](const core::Candidate& c) {
      return c.assignment.pstate != cluster::kNumPStates - 1;
    });
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "test-deepest";
  }
};

}  // namespace
}  // namespace ecdra

ECDRA_REGISTER_HEURISTIC("TestFirst", [](ecdra::util::RngStream) {
  return std::make_unique<ecdra::FirstCandidateHeuristic>();
})
ECDRA_REGISTER_FILTER("test-deepest", [](const ecdra::core::FilterChainOptions&) {
  return std::make_unique<ecdra::DeepestPStateFilter>();
})

namespace ecdra {
namespace {

sim::ExperimentSetup TinySetup() {
  sim::SetupOptions options;
  options.cluster.num_nodes = 3;
  options.cvb.num_task_types = 10;
  options.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(10, 20, 1.0 / 8.0, 1.0 / 48.0);
  return sim::BuildExperimentSetup(7, options);
}

TEST(CustomRegistration, RunsThroughStockHarnessByName) {
  const sim::ExperimentSetup setup = TinySetup();
  sim::RunOptions options;
  options.num_trials = 2;
  options.collect_task_records = true;

  // The custom heuristic + filter compose with a built-in filter in a
  // variant string, exactly like the built-ins.
  const std::vector<sim::TrialResult> trials =
      sim::RunTrials(setup, "TestFirst", "en+test-deepest", options);
  ASSERT_EQ(trials.size(), 2u);
  for (const sim::TrialResult& trial : trials) {
    EXPECT_EQ(trial.window_size, setup.window_size);
    // The filter's effect is observable: every assigned task sits in the
    // deepest P-state.
    for (const sim::TaskRecord& record : trial.task_records) {
      if (record.assigned) {
        EXPECT_EQ(record.pstate, cluster::kNumPStates - 1);
      }
    }
  }

  // Determinism holds for custom policies too.
  const std::vector<sim::TrialResult> again =
      sim::RunTrials(setup, "TestFirst", "en+test-deepest", options);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(trials[0].missed_deadlines, again[0].missed_deadlines);
  EXPECT_EQ(trials[0].total_energy, again[0].total_energy);
}

}  // namespace
}  // namespace ecdra
