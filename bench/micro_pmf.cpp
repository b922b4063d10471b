// Microbenchmarks of the pmf substrate — the paper notes "convolutions can
// take considerable time, but the overhead can be negligible if task
// execution times are sufficiently long"; these quantify the actual cost of
// the operations on the scheduler's hot path.
//
// Besides the console table, every run is captured into
// BENCH_micro_pmf.json ("ecdra-bench v1", see bench_json.hpp /
// EXPERIMENTS.md). Each benchmark reports the instrumented pmf-op tallies
// (obs::Counters, normalized per iteration) as user counters, so the JSON
// records both the cost and the operation mix behind it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_json.hpp"
#include "obs/counters.hpp"
#include "pmf/distribution_factory.hpp"
#include "pmf/pmf.hpp"
#include "robustness/core_queue_model.hpp"
#include "robustness/robustness.hpp"
#include "util/rng.hpp"

namespace {

using ecdra::pmf::Convolve;
using ecdra::pmf::DiscretizedGamma;
using ecdra::pmf::Pmf;
using ecdra::pmf::ProbSumLeq;
using ecdra::robustness::CoreQueueModel;
using ecdra::robustness::ModeledTask;

/// Installs the thread-local obs::Counters for the timed loop and, on
/// destruction, publishes the pmf-op tallies (per iteration) into the
/// benchmark's user counters.
class PmfOpCounters {
 public:
  explicit PmfOpCounters(benchmark::State& state)
      : state_(state), scope_(&counters_) {}

  ~PmfOpCounters() {
    const auto per_iteration = [this](std::uint64_t total) {
      const double iterations =
          std::max<double>(1.0, static_cast<double>(state_.iterations()));
      return static_cast<double>(total) / iterations;
    };
    state_.counters["convolve_ops"] = per_iteration(counters_.pmf_convolutions);
    state_.counters["compact_ops"] = per_iteration(counters_.pmf_compactions);
    state_.counters["prob_sum_leq_ops"] =
        per_iteration(counters_.pmf_prob_sum_leq);
    state_.counters["truncate_ops"] = per_iteration(counters_.pmf_truncations);
    state_.counters["ready_misses"] = per_iteration(counters_.ready_pmf_misses);
  }

 private:
  benchmark::State& state_;
  ecdra::obs::Counters counters_;
  ecdra::obs::CountersScope scope_;
};

Pmf MakePmf(std::size_t n, std::uint64_t seed) {
  ecdra::util::RngStream rng(seed);
  std::vector<ecdra::pmf::Impulse> impulses;
  for (std::size_t i = 0; i < n; ++i) {
    impulses.push_back({rng.UniformReal(500.0, 1500.0),
                        rng.UniformReal(0.01, 1.0)});
  }
  return Pmf::FromImpulses(std::move(impulses), n);
}

void BM_Convolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Pmf x = MakePmf(n, 1);
  const Pmf y = MakePmf(n, 2);
  const PmfOpCounters ops(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Convolve(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Convolve)->Arg(8)->Arg(16)->Arg(24)->Arg(32)->Arg(64)->Complexity();

void BM_ProbSumLeq(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Pmf x = MakePmf(n, 3);
  const Pmf y = MakePmf(n, 4);
  const PmfOpCounters ops(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProbSumLeq(x, y, 2100.0));
  }
}
BENCHMARK(BM_ProbSumLeq)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_TruncateRenormalize(benchmark::State& state) {
  const Pmf pmf = MakePmf(32, 5);
  const PmfOpCounters ops(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmf.TruncateBelow(900.0));
  }
}
BENCHMARK(BM_TruncateRenormalize);

void BM_Compact(benchmark::State& state) {
  const Pmf pmf = MakePmf(1024, 6);
  const PmfOpCounters ops(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmf.Compact(32));
  }
}
BENCHMARK(BM_Compact);

void BM_Shift(benchmark::State& state) {
  const Pmf pmf = MakePmf(32, 10);
  const PmfOpCounters ops(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmf.Shift(123.5));
  }
}
BENCHMARK(BM_Shift);

void BM_ScaleValues(benchmark::State& state) {
  const Pmf pmf = MakePmf(32, 11);
  const PmfOpCounters ops(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmf.ScaleValues(1.375));
  }
}
BENCHMARK(BM_ScaleValues);

/// Exec pmfs with stable addresses for CoreQueueModel benches (the model
/// keeps raw pointers into this storage, TaskTypeTable-style).
const std::vector<Pmf>& ExecPmfs() {
  static const std::vector<Pmf> pmfs = [] {
    std::vector<Pmf> out;
    for (std::size_t i = 0; i < 16; ++i) out.push_back(MakePmf(32, 100 + i));
    return out;
  }();
  return pmfs;
}

/// A CoreQueueModel with execs[0] running from t = 0 and `depth` tasks
/// queued behind it.
CoreQueueModel QueuedModel(std::size_t depth) {
  const std::vector<Pmf>& execs = ExecPmfs();
  CoreQueueModel model;
  model.StartTask(ModeledTask{0, &execs[0], 1e9}, 0.0);
  for (std::size_t i = 1; i <= depth; ++i) {
    model.Enqueue(ModeledTask{i, &execs[i], 1e9});
  }
  return model;
}

/// One ReadyPmf rebuild: the memo is keyed on how many running impulses lie
/// below `now`, so `now` alternates between the gaps on either side of one
/// impulse and every query pays the truncate (+ convolve when the queue is
/// non-empty) pipeline.
void BM_ReadyPmf(benchmark::State& state) {
  const CoreQueueModel model =
      QueuedModel(static_cast<std::size_t>(state.range(0)));
  const auto running = ExecPmfs()[0].impulses();
  const std::size_t k = running.size() / 2;
  const double below = 0.5 * (running[k - 1].value + running[k].value);
  const double above = 0.5 * (running[k].value + running[k + 1].value);
  const PmfOpCounters ops(state);
  std::uint32_t step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ReadyPmf((step++ & 1u) ? above : below));
  }
}
BENCHMARK(BM_ReadyPmf)->Arg(0)->Arg(4)->Arg(8);

/// Successive arrivals at a queue of depth 8: `now` steps by 8 s (a burst's
/// inter-arrival time) through the running pmf's [500, 1500] support, so the
/// memo rebuilds only when an impulse crosses `now`.
void BM_ReadyPmfArrivals(benchmark::State& state) {
  const CoreQueueModel model = QueuedModel(8);
  const PmfOpCounters ops(state);
  std::uint32_t step = 0;
  for (auto _ : state) {
    const double now = 500.0 + 8.0 * static_cast<double>(step++ % 125u);
    benchmark::DoNotOptimize(model.ReadyPmf(now));
  }
}
BENCHMARK(BM_ReadyPmfArrivals);

void BM_ExpectedReadyTime(benchmark::State& state) {
  const CoreQueueModel model = QueuedModel(4);
  const PmfOpCounters ops(state);
  std::uint32_t step = 0;
  for (auto _ : state) {
    const double now = 600.0 + 0.25 * static_cast<double>(step++ & 255u);
    benchmark::DoNotOptimize(model.ExpectedReadyTime(now));
  }
}
BENCHMARK(BM_ExpectedReadyTime);

void BM_CoreRobustness(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const std::vector<Pmf>& execs = ExecPmfs();
  CoreQueueModel model;
  model.StartTask(ModeledTask{0, &execs[0], 2000.0}, 0.0);
  for (std::size_t i = 1; i <= depth; ++i) {
    model.Enqueue(ModeledTask{i, &execs[i], 2000.0 * static_cast<double>(i)});
  }
  const PmfOpCounters ops(state);
  std::uint32_t step = 0;
  for (auto _ : state) {
    const double now = 600.0 + 0.25 * static_cast<double>(step++ & 255u);
    benchmark::DoNotOptimize(ecdra::robustness::CoreRobustness(model, now));
  }
}
BENCHMARK(BM_CoreRobustness)->Arg(4)->Arg(8);

/// Enqueue/dequeue churn: every StartNext/DropNext rebuilds the queued
/// suffix convolution from scratch (RebuildSuffix), the other pmf-op-bound
/// loop of the queue model.
void BM_QueueChurn(benchmark::State& state) {
  const std::vector<Pmf>& execs = ExecPmfs();
  const PmfOpCounters ops(state);
  for (auto _ : state) {
    CoreQueueModel model;
    model.StartTask(ModeledTask{0, &execs[0], 1e9}, 0.0);
    for (std::size_t i = 1; i <= 7; ++i) {
      model.Enqueue(ModeledTask{i, &execs[i], 1e9});
    }
    double now = 1000.0;
    for (std::size_t i = 0; i < 7; ++i) {
      model.FinishRunning();
      model.StartNext(now);
      now += 1000.0;
    }
    benchmark::DoNotOptimize(model.queue_length());
  }
}
BENCHMARK(BM_QueueChurn);

void BM_Expectation(benchmark::State& state) {
  const Pmf pmf = MakePmf(32, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmf.Expectation());
  }
}
BENCHMARK(BM_Expectation);

void BM_DiscretizedGamma(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscretizedGamma(750.0, 0.25));
  }
}
BENCHMARK(BM_DiscretizedGamma);

}  // namespace

int main(int argc, char** argv) {
  return ecdra::benchio::BenchMain(argc, argv, "micro_pmf");
}
