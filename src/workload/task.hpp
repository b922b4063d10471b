// A dynamically-arriving task (§III-B): known type, arrival time, and
// execution time pmf keyed by (type, node, P-state) in the TaskTypeTable.
// A Task is a *view into a Job*: it names the job it belongs to and the
// stage it sits in, and the single-stage/width-1 job is exactly the paper's
// independent task (the defaults below encode that case). Deadlines and
// priorities are per-job properties that every stage task inherits; see
// src/workload/job.hpp for the grouping.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ecdra::workload {

/// Sentinel for Task::job: the task is its own one-task job. Using a
/// sentinel instead of 0 keeps hand-built tasks with arbitrary ids one-task
/// jobs by default.
inline constexpr std::size_t kSelfJob = SIZE_MAX;

struct Task {
  /// Position in the arrival order (0-based; the paper's "window" is 1000).
  std::size_t id = 0;
  /// Index into the task-type table.
  std::size_t type = 0;
  /// Arrival time (the task is unknown to the scheduler before this).
  double arrival = 0.0;
  /// Hard deadline delta(z); completion after it has no value. This is the
  /// *job's* deadline — every stage task of one job carries the same value,
  /// and per-job on-time accounting checks the last finisher against it.
  double deadline = 0.0;
  /// Relative importance weight. Per-job single source: stage tasks inherit
  /// the job's priority verbatim, and the weighted completion metrics in
  /// TrialResult count each job once. 1.0 everywhere reproduces the paper.
  double priority = 1.0;
  /// Job this task belongs to (kSelfJob: the task is its own one-task job).
  /// Other values index the trial's job list.
  std::size_t job = kSelfJob;
  /// Stage index within the job's chain (0 for one-task jobs; stage s
  /// becomes ready when every task of stage s-1 has completed).
  std::size_t stage = 0;
  /// Revenue earned by completing this task on time, already scaled by its
  /// SLA tier's value multiplier (src/econ). 0.0 outside econ mode, which
  /// keeps every pre-econ result byte-identical.
  double value = 0.0;
  /// Index into the econ model's SLA tier list (0 when the model has no
  /// tiers — the neutral best-effort tier).
  std::size_t tier = 0;

  friend bool operator==(const Task&, const Task&) = default;
};

}  // namespace ecdra::workload
