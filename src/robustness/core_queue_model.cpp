#include "robustness/core_queue_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace ecdra::robustness {

std::size_t CoreQueueModel::CutAt(double now) const {
  const auto impulses = running_completion_.impulses();
  return static_cast<std::size_t>(
      std::lower_bound(impulses.begin(), impulses.end(), now,
                       [](const pmf::Impulse& imp, double t) {
                         return imp.value < t;
                       }) -
      impulses.begin());
}

void CoreQueueModel::RefreshTruncated(double now, std::size_t cut) const {
  if (truncated_key_.Serves(cut, now)) return;
  // §IV-B: completion pmf of the running task = its shifted exec pmf with
  // past impulses removed and the rest renormalized. In place: truncated_
  // keeps its storage, so a rebuild costs zero allocations.
  truncated_ = running_completion_;
  const double retained = truncated_.TruncateBelowInPlace(now);
  truncated_mean_ = truncated_.Expectation();
  truncated_variance_ = std::numeric_limits<double>::quiet_NaN();
  // TruncateBelowInPlace's Delta(now) fallback depends on now itself.
  const bool fallback = cut == running_completion_.size() ||
                        retained <= pmf::Pmf::kMassTolerance;
  truncated_key_ = MemoKey{true, cut, fallback, now};
}

const pmf::Pmf& CoreQueueModel::ReadyPmf(double now) const {
  const std::size_t cut = CutAt(now);
  if (ready_key_.Serves(cut, now)) {
    obs::Bump(&obs::Counters::ready_pmf_hits);
    return cached_ready_;
  }
  obs::Bump(&obs::Counters::ready_pmf_misses);

  if (!running_) {
    ECDRA_ASSERT(queued_.empty(), "queued tasks require a running task");
    cached_ready_ = pmf::Pmf::Delta(now);
    ready_key_ = MemoKey{true, cut, true, now};
    return cached_ready_;
  }
  RefreshTruncated(now, cut);
  if (queued_.empty()) {
    cached_ready_ = truncated_;
  } else {
    pmf::ConvolveInto(truncated_, queued_suffix_, pmf::Pmf::kDefaultMaxImpulses,
                      cached_ready_);
  }
  ready_key_ = truncated_key_;
  return cached_ready_;
}

double CoreQueueModel::ExpectedReadyTime(double now) const {
  if (!running_) return now;
  RefreshTruncated(now, CutAt(now));
  return truncated_mean_ + queued_mean_sum_;
}

Moments CoreQueueModel::ReadyMoments(double now) const {
  if (!running_) return Moments{now, 0.0};
  RefreshTruncated(now, CutAt(now));
  if (std::isnan(truncated_variance_)) {
    truncated_variance_ = truncated_.Variance();
  }
  return Moments{truncated_mean_ + queued_mean_sum_,
                 truncated_variance_ + queued_variance_sum_};
}

void CoreQueueModel::StartTask(const ModeledTask& task, double now) {
  ECDRA_REQUIRE(task.exec != nullptr, "modeled task needs an exec pmf");
  ECDRA_REQUIRE(!running_, "StartTask on a busy core; use Enqueue");
  SetRunning(task, now);
}

void CoreQueueModel::Enqueue(const ModeledTask& task) {
  ECDRA_REQUIRE(task.exec != nullptr, "modeled task needs an exec pmf");
  ECDRA_REQUIRE(running_, "Enqueue on an idle core; use StartTask");
  queued_.push_back(task);
  queued_mean_sum_ += task.exec->Expectation();
  queued_variance_sum_ += task.exec->Variance();
  if (queued_.size() == 1) {
    queued_suffix_ = *task.exec;
  } else {
    pmf::ConvolveInto(queued_suffix_, *task.exec, pmf::Pmf::kDefaultMaxImpulses,
                      queued_suffix_);
  }
  // The running task's truncation is unchanged; only the suffix moved.
  ready_key_.valid = false;
}

void CoreQueueModel::FinishRunning() {
  ECDRA_REQUIRE(running_, "FinishRunning on an idle core");
  running_.reset();
  InvalidateRunning();
}

void CoreQueueModel::StartNext(double now) {
  ECDRA_REQUIRE(!running_, "StartNext while a task is still running");
  ECDRA_REQUIRE(!queued_.empty(), "StartNext with an empty queue");
  const ModeledTask next = queued_.front();
  queued_.pop_front();
  RebuildSuffix();
  SetRunning(next, now);
}

void CoreQueueModel::DropNext() {
  ECDRA_REQUIRE(!running_, "DropNext while a task is running");
  ECDRA_REQUIRE(!queued_.empty(), "DropNext with an empty queue");
  queued_.pop_front();
  RebuildSuffix();
  ready_key_.valid = false;
}

void CoreQueueModel::Reset() noexcept {
  running_.reset();
  queued_.clear();
  queued_suffix_ = pmf::Pmf();
  queued_mean_sum_ = 0.0;
  queued_variance_sum_ = 0.0;
  InvalidateRunning();
}

void CoreQueueModel::SetRunning(const ModeledTask& task, double now) {
  running_ = task;
  start_time_ = now;
  running_completion_ = *task.exec;
  running_completion_.ShiftInPlace(now);
  truncated_key_.valid = false;
  ready_key_.valid = false;
}

void CoreQueueModel::InvalidateRunning() noexcept {
  running_completion_ = pmf::Pmf();
  truncated_key_.valid = false;
  ready_key_.valid = false;
}

void CoreQueueModel::RebuildSuffix() {
  if (queued_.empty()) {
    queued_suffix_ = pmf::Pmf();
    queued_mean_sum_ = 0.0;  // clear accumulated floating-point drift
    queued_variance_sum_ = 0.0;
    return;
  }
  queued_suffix_ = *queued_.front().exec;
  double mean_sum = queued_.front().exec->Expectation();
  double variance_sum = queued_.front().exec->Variance();
  for (std::size_t i = 1; i < queued_.size(); ++i) {
    pmf::ConvolveInto(queued_suffix_, *queued_[i].exec,
                      pmf::Pmf::kDefaultMaxImpulses, queued_suffix_);
    mean_sum += queued_[i].exec->Expectation();
    variance_sum += queued_[i].exec->Variance();
  }
  queued_mean_sum_ = mean_sum;
  queued_variance_sum_ = variance_sum;
}

}  // namespace ecdra::robustness
