#include "sim/metrics.hpp"

#include <ostream>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace ecdra::sim {

namespace {

/// The codec of the member `Get` reaches. A std::size_t member is a count,
/// a double a number, and a std::optional<double> a number-or-null.
template <auto Get>
constexpr ResultField::Codec MakeCodec() {
  using T = std::remove_cvref_t<decltype(Get(std::declval<TrialResult&>()))>;
  if constexpr (std::is_same_v<T, std::optional<double>>) {
    return {ResultField::Kind::kNumberOrNull,
            [](const TrialResult& result) {
              const std::optional<double>& number = Get(result);
              return number ? ResultValue(*number) : ResultValue();
            },
            [](TrialResult& result, const ResultValue& value) {
              const double* number = std::get_if<double>(&value);
              Get(result) = number ? std::optional(*number) : std::nullopt;
            }};
  } else {
    constexpr bool kCount = std::is_same_v<T, std::size_t>;
    static_assert(kCount || std::is_same_v<T, double>);
    using V = std::conditional_t<kCount, std::uint64_t, double>;
    return {kCount ? ResultField::Kind::kCount : ResultField::Kind::kNumber,
            [](const TrialResult& result) {
              return ResultValue(static_cast<V>(Get(result)));
            },
            [](TrialResult& result, const ResultValue& value) {
              Get(result) = std::get<V>(value);
            }};
  }
}

// ECDRA_RESULT_CODEC(member): the codec of result.member.
#define ECDRA_RESULT_CODEC(member) \
  MakeCodec<[](auto& result) -> auto& { return result.member; }>()

using S = SummaryStatistics;
constexpr bool kOmitWhenZero = true;

// The result table, one row per TrialResult scalar ({key, codec, mean fed,
// omit when zero}), block by block in emission order. The golden grid hashes
// the JSON these rows produce, so order, keys and omission are frozen: a new
// row goes last in its block and is omitted when zero, or opens a new block.
constexpr ResultField kTopFields[] = {
    {"window", ECDRA_RESULT_CODEC(window_size)},
    {"completed", ECDRA_RESULT_CODEC(completed), &S::mean_completed},
    {"missed", ECDRA_RESULT_CODEC(missed_deadlines), &S::mean_missed},
    {"discarded", ECDRA_RESULT_CODEC(discarded), &S::mean_discarded},
    {"late", ECDRA_RESULT_CODEC(finished_late)},
    {"over_budget", ECDRA_RESULT_CODEC(on_time_but_over_budget)},
    {"cancelled", ECDRA_RESULT_CODEC(cancelled), &S::mean_cancelled},
    {"failures", ECDRA_RESULT_CODEC(failures_injected), &S::mean_failures},
    {"repairs", ECDRA_RESULT_CODEC(repairs_applied)},
    {"throttles", ECDRA_RESULT_CODEC(throttles_injected)},
    {"lost", ECDRA_RESULT_CODEC(tasks_lost_to_failures), &S::mean_tasks_lost},
    {"remapped", ECDRA_RESULT_CODEC(tasks_remapped), &S::mean_remapped},
    {"remapped_on_time", ECDRA_RESULT_CODEC(remapped_on_time),
     &S::mean_remapped_on_time},
    // The domain-fault and migration rows postdate the rows above.
    {"domain_outages", ECDRA_RESULT_CODEC(domain_outages),
     &S::mean_domain_outages, kOmitWhenZero},
    {"domain_repairs", ECDRA_RESULT_CODEC(domain_repairs), nullptr,
     kOmitWhenZero},
    {"migrated", ECDRA_RESULT_CODEC(tasks_migrated), &S::mean_migrated,
     kOmitWhenZero},
    {"migrated_on_time", ECDRA_RESULT_CODEC(migrated_on_time),
     &S::mean_migrated_on_time, kOmitWhenZero},
    {"weighted_total", ECDRA_RESULT_CODEC(weighted_total)},
    {"weighted_completed", ECDRA_RESULT_CODEC(weighted_completed)},
    {"weighted_missed", ECDRA_RESULT_CODEC(weighted_missed)},
    {"energy", ECDRA_RESULT_CODEC(total_energy), &S::mean_energy},
    {"exhausted_at", ECDRA_RESULT_CODEC(energy_exhausted_at)},
    {"energy_remaining", ECDRA_RESULT_CODEC(estimated_energy_remaining)},
    {"makespan", ECDRA_RESULT_CODEC(makespan), &S::mean_makespan},
};

constexpr ResultField kStreamFields[] = {
    {"windows", ECDRA_RESULT_CODEC(stream.windows)},
    {"deferred", ECDRA_RESULT_CODEC(stream.deferred),
     &S::mean_stream_deferred},
    {"admission_dropped", ECDRA_RESULT_CODEC(stream.admission_dropped),
     &S::mean_stream_dropped},
    {"released", ECDRA_RESULT_CODEC(stream.released),
     &S::mean_stream_released},
    {"forced", ECDRA_RESULT_CODEC(stream.forced_admissions)},
    {"pen_peak", ECDRA_RESULT_CODEC(stream.pen_peak)},
    {"emergency_entries", ECDRA_RESULT_CODEC(stream.emergency_entries)},
    {"emergency_seconds", ECDRA_RESULT_CODEC(stream.emergency_seconds),
     &S::mean_emergency_seconds},
    {"degraded_entries", ECDRA_RESULT_CODEC(stream.degraded_entries)},
    {"degraded_seconds", ECDRA_RESULT_CODEC(stream.degraded_seconds),
     &S::mean_degraded_seconds},
    {"min_available", ECDRA_RESULT_CODEC(stream.min_available)},
    {"final_available", ECDRA_RESULT_CODEC(stream.final_available)},
};

constexpr ResultField kJobsFields[] = {
    {"jobs", ECDRA_RESULT_CODEC(jobs.jobs)},
    {"on_time", ECDRA_RESULT_CODEC(jobs.jobs_on_time), &S::mean_jobs_on_time},
    {"late", ECDRA_RESULT_CODEC(jobs.jobs_late)},
    {"failed", ECDRA_RESULT_CODEC(jobs.jobs_failed), &S::mean_jobs_failed},
    {"gangs_placed", ECDRA_RESULT_CODEC(jobs.gangs_placed),
     &S::mean_gangs_placed},
    {"gang_waits", ECDRA_RESULT_CODEC(jobs.gang_waits), &S::mean_gang_waits},
    {"gangs_requeued", ECDRA_RESULT_CODEC(jobs.gangs_requeued)},
    {"gangs_abandoned", ECDRA_RESULT_CODEC(jobs.gangs_abandoned)},
    {"pending_peak", ECDRA_RESULT_CODEC(jobs.pending_peak)},
    {"gang_wait_seconds", ECDRA_RESULT_CODEC(jobs.gang_wait_seconds),
     &S::mean_gang_wait_seconds},
};

constexpr ResultField kEconFields[] = {
    {"revenue", ECDRA_RESULT_CODEC(econ.revenue), &S::mean_revenue},
    {"energy_cost", ECDRA_RESULT_CODEC(econ.energy_cost),
     &S::mean_energy_cost},
    {"net_profit", ECDRA_RESULT_CODEC(econ.net_profit), &S::mean_net_profit},
    {"value_offered", ECDRA_RESULT_CODEC(econ.value_offered),
     &S::mean_value_offered},
    {"paid_finishes", ECDRA_RESULT_CODEC(econ.paid_finishes)},
    {"decayed_finishes", ECDRA_RESULT_CODEC(econ.decayed_finishes)},
    {"premium_total", ECDRA_RESULT_CODEC(econ.premium_total)},
    {"premium_on_time", ECDRA_RESULT_CODEC(econ.premium_on_time)},
};

// ECDRA_RESULT_BLOCK(member, trials, fields): the extension block of
// result.member, keyed by the member's name.
#define ECDRA_RESULT_BLOCK(member, trials, fields)                           \
  {#member, [](const TrialResult& result) { return result.member.enabled; }, \
   [](TrialResult& result, bool on) { result.member.enabled = on; },         \
   &SummaryStatistics::trials, fields}

constexpr ResultBlock kBlocks[] = {
    {"", [](const TrialResult&) { return true; }, nullptr, nullptr,
     kTopFields},
    ECDRA_RESULT_BLOCK(stream, stream_trials, kStreamFields),
    ECDRA_RESULT_BLOCK(jobs, job_trials, kJobsFields),
    ECDRA_RESULT_BLOCK(econ, econ_trials, kEconFields),
};

#undef ECDRA_RESULT_BLOCK
#undef ECDRA_RESULT_CODEC

/// A count or number row's value as a double (what SummarizeTrials adds).
double AsDouble(const ResultValue& value) {
  const std::uint64_t* count = std::get_if<std::uint64_t>(&value);
  return count != nullptr ? static_cast<double>(*count)
                          : std::get<double>(value);
}

void Print(std::ostream& os, const ResultValue& value) {
  if (const std::uint64_t* count = std::get_if<std::uint64_t>(&value)) {
    os << *count;
  } else if (const double* number = std::get_if<double>(&value)) {
    os << *number;
  } else {
    os << "null";
  }
}

}  // namespace

std::span<const ResultBlock> ResultBlocks() noexcept { return kBlocks; }

bool ResultField::written(const TrialResult& result) const {
  return !omit_when_zero || AsDouble(codec.get(result)) != 0.0;
}

std::ostream& operator<<(std::ostream& os, const TrialResult& result) {
  os << "TrialResult{";
  const char* separator = "";
  for (const ResultBlock& block : ResultBlocks()) {
    if (!block.enabled(result)) continue;
    if (!block.key.empty()) {
      os << ", " << block.key << '{';
      separator = "";
    }
    for (const ResultField& field : block.fields) {
      if (!field.written(result)) continue;
      os << separator << field.key << '=';
      Print(os, field.codec.get(result));
      separator = ", ";
    }
    if (!block.key.empty()) os << '}';
  }
  if (!result.validation.ok()) os << ", validation=" << result.validation;
  return os << '}';
}

SummaryStatistics SummarizeTrials(std::span<const TrialResult> trials) {
  ECDRA_REQUIRE(!trials.empty(), "cannot summarize zero trials");
  SummaryStatistics summary;
  summary.trials = trials.size();
  for (const TrialResult& trial : trials) {
    for (const ResultBlock& block : ResultBlocks()) {
      if (block.trials != nullptr && block.enabled(trial)) {
        ++(summary.*block.trials);
      }
      for (const ResultField& field : block.fields) {
        if (field.mean != nullptr) {
          summary.*field.mean += AsDouble(field.codec.get(trial));
        }
      }
    }
    summary.counters.Merge(trial.counters);
    summary.validation_checks += trial.validation.checks_run;
    summary.validation_violations += trial.validation.violations;
  }
  const double n = static_cast<double>(trials.size());
  for (const ResultBlock& block : ResultBlocks()) {
    for (const ResultField& field : block.fields) {
      if (field.mean != nullptr) summary.*field.mean /= n;
    }
  }
  return summary;
}

std::ostream& operator<<(std::ostream& os, const SummaryStatistics& summary) {
  os << "SummaryStatistics{trials=" << summary.trials;
  for (const ResultBlock& block : ResultBlocks()) {
    if (block.trials != nullptr) {
      if (summary.*block.trials == 0) continue;
      os << ", " << block.key << "{trials=" << summary.*block.trials;
    }
    for (const ResultField& field : block.fields) {
      if (field.mean == nullptr ||
          (field.omit_when_zero && summary.*field.mean == 0.0)) {
        continue;
      }
      os << ", " << field.key << '=' << summary.*field.mean;
    }
    if (block.trials != nullptr) os << '}';
  }
  if (summary.failed_trials > 0 || summary.retried_trials > 0 ||
      summary.timed_out_trials > 0) {
    os << ", failed_trials=" << summary.failed_trials
       << ", timed_out_trials=" << summary.timed_out_trials
       << ", retried_trials=" << summary.retried_trials;
  }
  if (summary.validation_checks > 0 || summary.validation_violations > 0) {
    os << ", validation_checks=" << summary.validation_checks
       << ", validation_violations=" << summary.validation_violations;
  }
  if (!summary.counters.empty()) {
    os << ", counters=" << summary.counters;
    if (summary.counters.decisions() > 0) {
      os << ", mean_decision_us="
         << 1e6 * summary.counters.decision_seconds /
                static_cast<double>(summary.counters.decisions());
    }
  }
  return os << "}";
}

}  // namespace ecdra::sim
