// The resource manager's stochastic model of one core's queue (§IV-B).
//
// Tracks the currently-executing task (by its start time and execution-time
// pmf) and the FIFO of tasks queued behind it. The "ready-time" pmf of the
// core at query time t_l is
//
//   truncate-renormalize(exec_running shifted by start, t_l)
//     (x) exec_q1 (x) ... (x) exec_qm
//
// where (x) is convolution. The running task's shifted pmf is stored once
// when it starts, and the suffix convolution of queued-task pmfs is cached
// (rebuilt on dequeue). The truncation depends on t_l only through its cut
// — how many of the shifted impulses lie strictly below t_l — so the ready
// pmf is memoized per cut: successive arrivals reuse it until an impulse
// crosses t_l or the queue mutates, and a rebuild costs one truncation plus
// one convolution. Two results depend on t_l itself and stay keyed on the
// exact query time: the idle core's Delta(t_l) and the truncation's
// Delta(t_l) fallback (every impulse past, or too little mass left).
//
// The ready pmf's mean and an upper bound on its variance come without any
// convolution (ReadyMoments): the truncated pmf's own moments plus running
// sums over the queued exec pmfs.
//
// Pmf pointers reference the TaskTypeTable (or any equally stable storage)
// and must outlive the model.
#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <optional>

#include "pmf/pmf.hpp"

namespace ecdra::robustness {

/// A task as the queue model sees it.
struct ModeledTask {
  std::size_t task_id = 0;
  /// Execution-time pmf at the task's assigned (node, P-state).
  const pmf::Pmf* exec = nullptr;
  double deadline = 0.0;
};

/// The mean of a ready pmf and an upper bound on its variance.
struct Moments {
  double mean = 0.0;
  double variance = 0.0;
};

class CoreQueueModel {
 public:
  /// Number of tasks assigned to this core (running + queued); the SQ
  /// heuristic's |MQ(i,j,k,t_l)|.
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return (running_ ? 1 : 0) + queued_.size();
  }
  [[nodiscard]] bool idle() const noexcept { return !running_; }
  [[nodiscard]] const std::optional<ModeledTask>& running() const noexcept {
    return running_;
  }
  [[nodiscard]] double running_start() const noexcept { return start_time_; }
  [[nodiscard]] const std::deque<ModeledTask>& queued() const noexcept {
    return queued_;
  }

  /// Ready-time pmf of this core as predicted at time `now` — the stochastic
  /// time at which all currently-assigned work completes. Delta(now) when
  /// the core is empty.
  [[nodiscard]] const pmf::Pmf& ReadyPmf(double now) const;

  /// Expectation of ReadyPmf(now), computed without any convolution
  /// (expectation is additive over the queue).
  [[nodiscard]] double ExpectedReadyTime(double now) const;

  /// ExpectedReadyTime(now), and an upper bound on ReadyPmf(now)'s variance,
  /// both without convolving. Compaction merges each run of impulses at its
  /// weighted mean, so it keeps a pmf's mean and never raises its variance,
  /// and convolution adds variances: the ready pmf's variance is at most the
  /// truncated running pmf's variance plus the queued exec variances. The
  /// bound is exact when nothing was compacted; {now, 0} on an idle core.
  [[nodiscard]] Moments ReadyMoments(double now) const;

  /// The simulator started `task` on this (previously idle) core at `now`.
  void StartTask(const ModeledTask& task, double now);
  /// A new task was assigned behind the running one.
  void Enqueue(const ModeledTask& task);
  /// The running task finished; if the queue is non-empty the caller must
  /// follow up with StartNext.
  void FinishRunning();
  /// Promotes the head of the queue to running at time `now`.
  void StartNext(double now);
  /// Removes the head of the queue without running it (task cancellation —
  /// the §VIII future-work extension). The core must be idle, as
  /// cancellation decisions happen when a core picks its next task.
  void DropNext();
  /// Forgets every assigned task (running and queued) — the core failed and
  /// its work is stranded (fault extension). The model returns to the
  /// empty-core state; ReadyPmf becomes Delta(now).
  void Reset() noexcept;

 private:
  /// What a memoized pmf was built for: the truncation cut, plus the exact
  /// query time when the result depends on it (idle core, Delta fallback).
  struct MemoKey {
    bool valid = false;
    std::size_t cut = 0;
    bool keyed_on_now = false;
    double now = 0.0;

    [[nodiscard]] bool Serves(std::size_t query_cut,
                              double query_now) const noexcept {
      return valid && cut == query_cut && (!keyed_on_now || now == query_now);
    }
  };

  /// Number of running_completion_ impulses with value < now — the same
  /// strict comparison TruncateBelowInPlace uses. 0 when idle.
  [[nodiscard]] std::size_t CutAt(double now) const;
  /// Brings truncated_/truncated_mean_ up to date for `now` at `cut`.
  void RefreshTruncated(double now, std::size_t cut) const;
  void SetRunning(const ModeledTask& task, double now);
  void RebuildSuffix();
  void InvalidateRunning() noexcept;

  std::optional<ModeledTask> running_;
  double start_time_ = 0.0;
  /// The running task's exec pmf shifted by its start time; empty when idle.
  pmf::Pmf running_completion_;
  std::deque<ModeledTask> queued_;
  /// Convolution of all queued (not running) exec pmfs; empty when none.
  pmf::Pmf queued_suffix_;
  /// Sums of queued exec-pmf means and variances, for the scalar fast path
  /// and the variance bound; recomputed front to back by RebuildSuffix.
  double queued_mean_sum_ = 0.0;
  double queued_variance_sum_ = 0.0;

  /// running_completion_ truncated at truncated_key_, its expectation and
  /// its variance (NaN until ReadyMoments asks); shared by ReadyPmf,
  /// ExpectedReadyTime and ReadyMoments and kept across Enqueue.
  mutable pmf::Pmf truncated_;
  mutable double truncated_mean_ = 0.0;
  mutable double truncated_variance_ = std::numeric_limits<double>::quiet_NaN();
  mutable MemoKey truncated_key_;
  /// truncated_ (x) queued_suffix_, valid for ready_key_.
  mutable pmf::Pmf cached_ready_;
  mutable MemoKey ready_key_;
};

}  // namespace ecdra::robustness
