// Job-level workload model: a job is a chain of stages, each stage a gang
// of `width >= 1` tasks of one type that must start simultaneously on
// distinct cores; stage s becomes ready when every task of stage s-1 has
// completed. The chain shape covers the map->reduce family (a wide map
// stage followed by a width-1 reduce) from Bampis et al. (arXiv:1402.2810)
// and rigid `nb_hosts`-style gangs (Casanova, Stillwell & Vivien,
// arXiv:1106.4985) as the single-stage case. The 1-stage/width-1 job is
// exactly the paper's independent task, and the engine runs every task as
// a member of some job.
//
// Jobs are not a parallel data structure to the trial's task vector: every
// stage member IS a workload::Task (same flat ids, same arrival order), and
// a JobGraph is derived from the tasks' `job`/`stage` fields. Arrival,
// deadline and priority are per-job properties replicated onto every member
// task, so they are read from the members; the job's completion time is the
// max across the final stage (which the pmf layer models with MaxInto — max
// across siblings, convolution along the chain).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "workload/task.hpp"

namespace ecdra::workload {

/// One gang: `width` consecutive tasks (flat ids `first_task` ..
/// `first_task + width - 1`) of a single type that must start together on
/// distinct cores.
struct JobStage {
  std::size_t first_task = 0;
  std::size_t width = 1;
};

/// The per-trial job view of a task vector, stored flat: the stages of all
/// jobs partition the task ids in order. Job j owns stages
/// [job_begin[j], job_begin[j + 1]), and stage s covers task ids
/// [stage_begin[s], stage_begin[s + 1]). A one-task job costs one entry in
/// each array.
struct JobGraph {
  /// jobs + 1 entries.
  std::vector<std::uint32_t> job_begin = {0};
  /// stages + 1 entries.
  std::vector<std::uint32_t> stage_begin = {0};

  [[nodiscard]] std::size_t size() const { return job_begin.size() - 1; }
  [[nodiscard]] std::size_t num_stages(std::size_t job) const {
    return job_begin[job + 1] - job_begin[job];
  }
  /// Stage `s` (0-based within the job) of `job`.
  [[nodiscard]] JobStage stage(std::size_t job, std::size_t s) const {
    const std::size_t flat = job_begin[job] + s;
    return JobStage{stage_begin[flat],
                    stage_begin[flat + 1] - stage_begin[flat]};
  }
  [[nodiscard]] std::size_t first_task(std::size_t job) const {
    return stage_begin[job_begin[job]];
  }
  [[nodiscard]] std::size_t total_tasks(std::size_t job) const {
    return stage_begin[job_begin[job + 1]] - first_task(job);
  }
};

/// Derives the JobGraph from the tasks' `job`/`stage` fields and validates
/// the encoding the generator promises:
///   - job ids are dense and appear over contiguous, ascending task-id
///     ranges (kSelfJob tasks form their own single-task jobs);
///   - every member of a job shares its arrival, deadline, and priority
///     (per-job single source), and every member of a stage its task type;
///   - stage indices within a job start at 0 and are contiguous and
///     non-decreasing along the task range;
///   - the task count fits the graph's 32-bit offsets.
/// Throws std::invalid_argument naming the offending task on any breach.
[[nodiscard]] JobGraph BuildJobGraph(std::span<const Task> tasks);

}  // namespace ecdra::workload
