// Extension example: plugging your own heuristic and filter into the
// scheduler — in one file, with no factory edits. Everything the paper's
// heuristics see — queue lengths, expected execution/energy scalars,
// stochastic completion probabilities — is exposed through MappingContext,
// so a downstream policy is a single Select() function. Here we write:
//
//   * MinimumEnergyHeuristic — greedily picks the lowest-EEC assignment
//     (what LL degrades to when every rho is ~0), and
//   * DeadlineSlackFilter — drops assignments whose *expected* completion
//     would land within a safety margin of the deadline (a deterministic
//     cousin of the paper's robustness filter),
//
// register both under string names (ECDRA_REGISTER_HEURISTIC /
// ECDRA_REGISTER_FILTER), and then drive them through the *stock*
// sim::RunTrials harness by name — "MinEnergy" with the "en+slack" variant —
// exactly like a built-in. Registration is the whole integration surface.
//
//   ./examples/custom_heuristic [num_trials]   (default 10)
#include <iostream>
#include <memory>

#include "core/factory.hpp"
#include "core/filter.hpp"
#include "core/heuristic.hpp"
#include "experiment/paper_config.hpp"
#include "policy/count_arg.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table_writer.hpp"

namespace {

using namespace ecdra;

/// Pick the assignment with the smallest expected energy consumption.
class MinimumEnergyHeuristic final : public core::Heuristic {
 public:
  [[nodiscard]] std::optional<core::Candidate> Select(
      const core::MappingContext& ctx) override {
    // The first candidate with the smallest key; nullopt when none is left.
    return core::FirstMinimum(ctx.candidates(),
                              [](const core::Candidate& c) { return c.eec; });
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "MinEnergy";
  }
};

/// Drop assignments whose expected completion time leaves less than
/// `margin` x EET of slack before the deadline.
class DeadlineSlackFilter final : public core::Filter {
 public:
  explicit DeadlineSlackFilter(double margin) : margin_(margin) {}

  void Apply(core::MappingContext& ctx) override {
    std::erase_if(ctx.candidates(), [&ctx, this](const core::Candidate& c) {
      return ctx.ExpectedCompletionTime(c) + margin_ * c.eet >
             ctx.task().deadline;
    });
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "slack";
  }

 private:
  double margin_;
};

}  // namespace

// The whole integration: after these two lines, "MinEnergy" and "slack" are
// first-class citizens of every harness that takes policy names — RunTrials,
// RunSweep, the grid driver, the CLI. Composite variants like "en+slack"
// compose the custom filter with the paper's energy filter for free.
ECDRA_REGISTER_HEURISTIC("MinEnergy", [](util::RngStream) {
  return std::make_unique<MinimumEnergyHeuristic>();
})
ECDRA_REGISTER_FILTER("slack", [](const core::FilterChainOptions&) {
  return std::make_unique<DeadlineSlackFilter>(0.5);
})

int main(int argc, char** argv) {
  const std::size_t num_trials =
      policy::CountArg(argc, argv, 1, "TRIALS", 1, 10);

  const sim::ExperimentSetup setup = experiment::BuildPaperSetup();
  std::cout << "== Custom policies vs the paper's filtered LL (" << num_trials
            << " trials) ==\n\n";

  stats::Table table({"policy", "median missed", "Q1", "Q3"});
  sim::RunOptions options;
  options.num_trials = num_trials;
  const auto add = [&](const std::string& heuristic,
                       const std::string& variant, const std::string& label) {
    std::vector<double> misses;
    for (const sim::TrialResult& trial :
         sim::RunTrials(setup, heuristic, variant, options)) {
      misses.push_back(static_cast<double>(trial.missed_deadlines));
    }
    const stats::BoxWhisker box = stats::Summarize(misses);
    table.AddRow({label, stats::Table::Num(box.median, 1),
                  stats::Table::Num(box.q1, 1), stats::Table::Num(box.q3, 1)});
  };

  add("MinEnergy", "en", "MinEnergy (en)");
  add("MinEnergy", "en+slack", "MinEnergy (en + slack filter)");
  add("LL", "en+rob", "LL (en+rob) — paper's best");

  table.PrintText(std::cout);
  std::cout << "\ngreedy energy minimization without completion-awareness "
               "loses almost every task during bursts; adding a simple "
               "deadline-slack filter makes the same heuristic competitive "
               "with (here even better than) the paper's LL — filters, not "
               "heuristic sophistication, drive performance, which is the "
               "paper's central claim.\n";
  return 0;
}
