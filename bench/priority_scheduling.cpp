// Extension experiment: tasks with varying priorities (§VIII future work).
// Workload: 10% high-priority (weight 8) / 90% normal tasks. The metric is
// priority-weighted missed deadlines. Compares the paper's priority-blind
// filters against the priority-scaled fair share (important tasks may buy
// costlier, faster assignments).
//
// Usage: ./priority_scheduling [num_trials]   (default 25)
#include <iostream>

#include "experiment/paper_config.hpp"
#include "policy/count_arg.hpp"
#include "sim/experiment_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table_writer.hpp"
#include "util/rng.hpp"
#include "workload/workload_generator.hpp"

int main(int argc, char** argv) {
  using namespace ecdra;

  const std::size_t num_trials =
      policy::CountArg(argc, argv, 1, "TRIALS", 1, 25);

  sim::SetupOptions setup_options = experiment::PaperSetupOptions();
  setup_options.workload.priority_classes = {
      workload::PriorityClass{8.0, 0.10},  // critical tasks
      workload::PriorityClass{1.0, 0.90},
  };
  const sim::ExperimentSetup setup = sim::BuildExperimentSetup(
      experiment::kPaperMasterSeed, setup_options);

  std::cout << "== Priority-weighted scheduling (10% weight-8 tasks, "
            << num_trials << " trials) ==\n\n";

  stats::Table table({"configuration", "median weighted missed",
                      "median missed (count)", "high-priority miss rate"});
  const auto add_row = [&](const std::string& label, bool scale_by_priority) {
    sim::RunOptions run;
    run.num_trials = num_trials;
    run.collect_task_records = true;
    run.filter_options.energy.scale_fair_share_by_priority =
        scale_by_priority;
    // Mean workload priority: 8 * 0.1 + 1 * 0.9.
    run.filter_options.energy.priority_baseline = 1.7;
    const auto trials = sim::RunTrials(setup, "LL", "en+rob", run);
    std::vector<double> weighted, counts;
    std::size_t high_missed = 0, high_total = 0;
    for (std::size_t t = 0; t < trials.size(); ++t) {
      const sim::TrialResult& trial = trials[t];
      weighted.push_back(trial.weighted_missed);
      counts.push_back(static_cast<double>(trial.missed_deadlines));
      // Priority is a per-job workload property, not a TaskRecord field:
      // regenerate trial t's task list from the same substream the runner
      // used and join on task_id.
      util::RngStream workload_rng = util::RngStream(setup.master_seed)
                                         .Substream("trial", t)
                                         .Substream("workload");
      const std::vector<workload::Task> tasks =
          workload::GenerateWorkload(setup.types, setup.workload,
                                     workload_rng);
      for (const sim::TaskRecord& record : trial.task_records) {
        if (tasks[record.task_id].priority < 2.0) continue;
        ++high_total;
        const bool ok =
            record.assigned && record.on_time && record.within_energy &&
            !record.cancelled;
        if (!ok) ++high_missed;
      }
    }
    table.AddRow(
        {label, stats::Table::Num(stats::Summarize(weighted).median, 1),
         stats::Table::Num(stats::Summarize(counts).median, 1),
         stats::Table::Num(100.0 * static_cast<double>(high_missed) /
                               static_cast<double>(high_total), 1) + "%"});
  };

  add_row("LL (en+rob), priority-blind (paper)", false);
  add_row("LL (en+rob), priority-scaled fair share", true);

  table.PrintText(std::cout);
  std::cout << "\nscaling the energy fair share by priority lets critical "
               "tasks claim high-performance assignments the filter would "
               "otherwise deny, trading normal-task completions for "
               "weighted-metric gains.\n";
  return 0;
}
