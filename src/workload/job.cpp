#include "workload/job.hpp"

#include <limits>
#include <string>

#include "util/assert.hpp"

namespace ecdra::workload {
namespace {

[[noreturn]] void BadTask(std::size_t id, const char* what) {
  throw std::invalid_argument("task " + std::to_string(id) + ": " + what);
}

}  // namespace

JobGraph BuildJobGraph(std::span<const Task> tasks) {
  ECDRA_REQUIRE(tasks.size() <= std::numeric_limits<std::uint32_t>::max(),
                "a job graph indexes tasks with 32-bit offsets");
  JobGraph graph;
  graph.job_begin.reserve(tasks.size() + 1);
  graph.stage_begin.reserve(tasks.size() + 1);
  // The last entry of each array is the end of the open job and stage, so
  // a member extends them and a new job or stage appends an end.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& task = tasks[i];
    const auto end = static_cast<std::uint32_t>(i + 1);
    const bool starts_job = i == 0 || task.job == kSelfJob ||
                            tasks[i - 1].job == kSelfJob ||
                            task.job != tasks[i - 1].job;
    if (starts_job) {
      if (task.job != kSelfJob && task.job != graph.size()) {
        BadTask(i, "job ids must be dense over contiguous task ranges");
      }
      if (task.stage != 0) BadTask(i, "a job must begin at stage 0");
      graph.stage_begin.push_back(end);
      graph.job_begin.push_back(
          static_cast<std::uint32_t>(graph.stage_begin.size() - 1));
      continue;
    }
    const std::size_t job = graph.size() - 1;
    const Task& first = tasks[graph.first_task(job)];
    if (task.arrival != first.arrival || task.deadline != first.deadline ||
        task.priority != first.priority) {
      BadTask(i,
              "every member of a job must share its arrival, deadline, and "
              "priority");
    }
    const std::size_t stages = graph.num_stages(job);
    if (task.stage == stages - 1) {
      if (task.type != tasks[graph.stage(job, stages - 1).first_task].type) {
        BadTask(i, "every member of a stage must share its task type");
      }
      graph.stage_begin.back() = end;
    } else if (task.stage == stages) {
      graph.stage_begin.push_back(end);
      ++graph.job_begin.back();
    } else {
      BadTask(i, "stage indices must be contiguous and non-decreasing");
    }
  }
  return graph;
}

}  // namespace ecdra::workload
