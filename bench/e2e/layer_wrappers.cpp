#include "layer_wrappers.hpp"

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "batch/batch_heuristics.hpp"
#include "core/factory.hpp"
#include "core/gang_placement.hpp"
#include "governor/governor.hpp"
#include "stream/admission.hpp"

namespace ecdra::e2e {
namespace {

constexpr std::string_view kPrefix = "bench.";

std::mutex g_totals_mutex;
LayerTotals g_totals;  // guarded by g_totals_mutex

/// One wrapper's accumulators, added into g_totals when the wrapper (and
/// with it the trial's policy object) is destroyed.
class LayerAccount {
 public:
  explicit LayerAccount(Layer layer) noexcept : layer_(layer) {}
  ~LayerAccount() {
    const std::lock_guard lock(g_totals_mutex);
    g_totals[static_cast<std::size_t>(layer_)].Merge(stats_);
  }
  LayerAccount(const LayerAccount&) = delete;
  LayerAccount& operator=(const LayerAccount&) = delete;

  [[nodiscard]] LayerStats& stats() noexcept { return stats_; }

 private:
  Layer layer_;
  LayerStats stats_;
};

/// Times one call: counts it and adds its duration when the scope ends.
class CallTimer {
 public:
  explicit CallTimer(LayerStats& stats) noexcept
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}
  ~CallTimer() {
    ++stats_.calls;
    stats_.seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  LayerStats& stats_;
  std::chrono::steady_clock::time_point start_;
};

class TimedHeuristic final : public core::Heuristic {
 public:
  explicit TimedHeuristic(std::unique_ptr<core::Heuristic> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::optional<core::Candidate> Select(
      const core::MappingContext& ctx) override {
    const CallTimer timer(account_.stats());
    return inner_->Select(ctx);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

 private:
  std::unique_ptr<core::Heuristic> inner_;
  LayerAccount account_{Layer::kHeuristic};
};

Layer FilterLayer(std::string_view name) noexcept {
  if (name == "en") return Layer::kFilterEn;
  if (name == "rob") return Layer::kFilterRob;
  return Layer::kFilterOther;
}

class TimedFilter final : public core::Filter {
 public:
  explicit TimedFilter(std::unique_ptr<core::Filter> inner)
      : inner_(std::move(inner)), account_(FilterLayer(inner_->name())) {}

  void Apply(core::MappingContext& ctx) override {
    LayerStats& stats = account_.stats();
    stats.items_in += ctx.candidates().size();
    {
      const CallTimer timer(stats);
      inner_->Apply(ctx);
    }
    stats.items_out += ctx.candidates().size();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

 private:
  std::unique_ptr<core::Filter> inner_;
  LayerAccount account_;
};

class TimedBatchHeuristic final : public batch::BatchHeuristic {
 public:
  explicit TimedBatchHeuristic(std::unique_ptr<batch::BatchHeuristic> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::vector<batch::BatchAssignment> MapBatch(
      const std::vector<batch::BatchTask>& tasks, double now) override {
    const CallTimer timer(account_.stats());
    return inner_->MapBatch(tasks, now);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

 private:
  std::unique_ptr<batch::BatchHeuristic> inner_;
  LayerAccount account_{Layer::kBatchHeuristic};
};

class TimedGovernor final : public governor::Governor {
 public:
  explicit TimedGovernor(std::unique_ptr<governor::Governor> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] governor::GovernorCadence cadence() const override {
    return inner_->cadence();
  }
  void Govern(const governor::GovernorObservation& observation,
              governor::GovernorHost& host) override {
    const CallTimer timer(account_.stats());
    inner_->Govern(observation, host);
  }

 private:
  std::unique_ptr<governor::Governor> inner_;
  LayerAccount account_{Layer::kGovernor};
};

class TimedAdmission final : public stream::AdmissionPolicy {
 public:
  explicit TimedAdmission(std::unique_ptr<stream::AdmissionPolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool active() const noexcept override {
    return inner_->active();
  }
  [[nodiscard]] stream::AdmissionVerdict Decide(
      const stream::AdmissionView& view) override {
    const CallTimer timer(account_.stats());
    return inner_->Decide(view);
  }

 private:
  std::unique_ptr<stream::AdmissionPolicy> inner_;
  LayerAccount account_{Layer::kAdmission};
};

class TimedGangPlacement final : public core::GangPlacement {
 public:
  explicit TimedGangPlacement(std::unique_ptr<core::GangPlacement> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool Serializes() const noexcept override {
    return inner_->Serializes();
  }
  void Select(std::span<const core::GangCoreOption> options, std::size_t width,
              std::vector<std::size_t>& chosen) const override {
    const CallTimer timer(account_.stats());
    inner_->Select(options, width, chosen);
  }

 private:
  std::unique_ptr<core::GangPlacement> inner_;
  // Select is const in the interface; the timing is not part of the
  // policy's observable state.
  mutable LayerAccount account_{Layer::kGang};
};

}  // namespace

void LayerStats::Merge(const LayerStats& other) noexcept {
  calls += other.calls;
  seconds += other.seconds;
  items_in += other.items_in;
  items_out += other.items_out;
}

double LayerStats::us_per_call() const noexcept {
  return calls == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(calls);
}

std::string TimedName(std::string_view name) {
  return std::string(kPrefix) + std::string(name);
}

std::string TimedVariant(std::string_view variant, bool wrap_rob) {
  if (variant == "none") return std::string(variant);
  std::string out;
  while (true) {
    const std::size_t plus = variant.find('+');
    const std::string_view name = variant.substr(0, plus);
    if (!out.empty()) out += '+';
    out += (name == "rob" && !wrap_rob) ? std::string(name) : TimedName(name);
    if (plus == std::string_view::npos) break;
    variant.remove_prefix(plus + 1);
  }
  return out;
}

void RegisterTimedPolicies() {
  static std::once_flag once;
  std::call_once(once, [] {
    // Names() is a snapshot, so no wrapper ever wraps another wrapper.
    for (const std::string& name : core::HeuristicRegistry().Names()) {
      core::HeuristicRegistry().Register(
          TimedName(name), [name](util::RngStream rng) {
            return std::make_unique<TimedHeuristic>(
                core::MakeHeuristic(name, std::move(rng)));
          });
    }
    for (const std::string& name : core::FilterRegistry().Names()) {
      core::FilterRegistry().Register(
          TimedName(name), [name](const core::FilterChainOptions& options) {
            return std::make_unique<TimedFilter>(
                core::FilterRegistry().Make(name, options));
          });
    }
    for (const std::string& name : batch::BatchHeuristicRegistry().Names()) {
      batch::BatchHeuristicRegistry().Register(TimedName(name), [name] {
        return std::make_unique<TimedBatchHeuristic>(
            batch::MakeBatchHeuristic(name));
      });
    }
    for (const std::string& name : governor::GovernorRegistry().Names()) {
      governor::GovernorRegistry().Register(TimedName(name), [name] {
        return std::make_unique<TimedGovernor>(governor::MakeGovernor(name));
      });
    }
    for (const std::string& name : stream::AdmissionRegistry().Names()) {
      stream::AdmissionRegistry().Register(
          TimedName(name), [name](const stream::AdmissionOptions& options) {
            return std::make_unique<TimedAdmission>(
                stream::MakeAdmissionPolicy(name, options));
          });
    }
    for (const std::string& name : core::GangPlacementRegistry().Names()) {
      core::GangPlacementRegistry().Register(TimedName(name), [name] {
        return std::make_unique<TimedGangPlacement>(
            core::MakeGangPlacement(name));
      });
    }
  });
}

LayerTotals TakeLayerTotals() {
  const std::lock_guard lock(g_totals_mutex);
  return std::exchange(g_totals, LayerTotals{});
}

}  // namespace ecdra::e2e
