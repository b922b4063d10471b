// Decision-level telemetry (docs/ARCHITECTURE.md, "obs").
//
// A TraceSink receives one structured record per scheduler decision and
// periodic energy-meter snapshots. The engine and scheduler only pay for
// record construction when a sink is attached; the default (no sink) costs
// a null-check per arrival.
//
// The JSONL sinks serialize each record as one JSON object per line:
//
//   {"event":"decision","trial":T,"task":Z,"time":t,"deadline":d,
//    "assigned":true,"core":F,"pstate":S,"eet":..,"eec":..,"rho":..,
//    "candidates":N,
//    "stages":[{"filter":"en","pruned":P,"survivors":M}, ...],
//    "decision_us":U}
//   {"event":"decision",...,"assigned":false,"discard_stage":"en",...}
//   {"event":"energy","trial":T,"time":t,"consumed":C,"budget":B,
//    "estimated_remaining":R}
//   {"event":"fault","trial":T,"time":t,"kind":"failure","core":F,
//    "tasks_lost":L,"tasks_requeued":R}
//   {"event":"fault",...,"kind":"throttle_start","pstate_floor":S}
//   {"event":"governor","trial":T,"time":t,"governor":"budget-feedback",
//    "action":"cap","core":F,"pstate_floor":S}
//   {"event":"governor",...,"action":"park","core":F}
//   {"event":"governor",...,"action":"allowance","scale":X}
//   {"event":"window","trial":T,"index":I,"start":t0,"end":t1,
//    "arrivals":A,"admitted":M,"deferred":D,"dropped":X,"released":R,
//    "on_time":O,"late":L,"over_energy":E,"joules":J,
//    "on_time_per_joule":OPJ,"missed_rate":MR,"available":B,
//    "queue_depth":Q,"pen_depth":P,"emergency":false}
//   {"event":"profit","trial":T,"time":t,"revenue":R,"cost":C,"net":N,
//    "offered":V,"paid":P,"decayed":D}
//
// `stages` lists the filter chain in application order; `discard_stage`
// names the stage that emptied the candidate set ("" never appears — the
// key is omitted for assigned tasks). `decision_us` is the steady_clock
// wall time of the decision behind the record: the whole MapTask call, a
// placed gang's MapGang call divided by its width (one record per member),
// or a batch event's whole decision (on each of its records). Decision
// records for fault-recovery re-mappings additionally carry "remap":true.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace ecdra::obs {

/// One filter stage's effect on the candidate set.
struct FilterStageRecord {
  std::string filter;  // Filter::name()
  std::uint64_t pruned = 0;
  std::uint64_t survivors = 0;

  friend bool operator==(const FilterStageRecord&,
                         const FilterStageRecord&) = default;
};

/// One immediate-mode mapping decision.
struct MappingDecisionRecord {
  std::uint64_t trial = 0;
  std::uint64_t task_id = 0;
  double time = 0.0;      // arrival / decision time t_l
  double deadline = 0.0;
  bool assigned = false;
  /// Stage that emptied the candidate set (empty when assigned).
  std::string discard_stage;
  std::uint64_t flat_core = 0;
  std::uint64_t pstate = 0;
  double eet = 0.0;  // expected execution time of the chosen candidate
  double eec = 0.0;  // expected energy consumption of the chosen candidate
  /// rho(i,j,k,pi,t_l,z) of the chosen candidate at decision time.
  double rho = 0.0;
  /// Candidates enumerated before any filter ran.
  std::uint64_t candidates_generated = 0;
  std::vector<FilterStageRecord> stages;
  /// Wall-clock decision latency, microseconds (steady_clock): the MapTask
  /// call; for a gang member, the MapGang call divided by the gang width;
  /// for a batch assignment, the whole batch event.
  double decision_us = 0.0;
  /// True for fault-recovery re-mapping decisions (the task already appeared
  /// in an earlier decision record of the same trial).
  bool remap = false;
};

/// Snapshot of the online energy meter against the budget, taken by the
/// engine after a mapping decision.
struct EnergySnapshotRecord {
  std::uint64_t trial = 0;
  double time = 0.0;
  double consumed = 0.0;   // ground-truth wall energy drawn so far
  double budget = 0.0;     // zeta_max
  /// The scheduler's zeta(t_l) estimate (can be negative).
  double estimated_remaining = 0.0;
};

/// One applied fault event (failure/repair/throttle) and its immediate
/// consequences for the work assigned to the core.
struct FaultEventRecord {
  std::uint64_t trial = 0;
  double time = 0.0;
  /// "failure" | "repair" | "throttle_start" | "throttle_end" |
  /// "domain_outage" | "domain_repair".
  std::string kind;
  std::uint64_t flat_core = 0;
  /// throttle_start only: the P-state floor imposed on the core.
  std::uint64_t pstate_floor = 0;
  /// failure / domain_outage only: stranded tasks dropped / successfully
  /// re-mapped (running restarts) / migrated (queued, kMigrateQueued).
  std::uint64_t tasks_lost = 0;
  std::uint64_t tasks_requeued = 0;
  std::uint64_t tasks_migrated = 0;
  /// domain_outage / domain_repair only: the fault-domain index.
  std::uint64_t domain = 0;
};

/// One applied governor action (src/governor). The engine-side host emits a
/// record per *effective* action — requests that changed nothing (same
/// floor, same scale, refused park) produce no record.
struct GovernorActionRecord {
  std::uint64_t trial = 0;
  double time = 0.0;
  /// Governor::name() of the issuing governor.
  std::string governor;
  /// "cap" (P-state floor change) | "park" (idle core power-gated) |
  /// "allowance" (fair-share scale change).
  std::string action;
  /// cap / park only: the targeted core.
  std::uint64_t flat_core = 0;
  /// cap only: the new floor (0 = cap lifted).
  std::uint64_t pstate_floor = 0;
  /// allowance only: the new fair-share scale.
  double scale = 0.0;
};

/// One closed rolling window of the streaming service mode (src/stream):
/// what arrived, what finished how, what it cost, and where the account and
/// the backpressure stand at the boundary.
struct StreamWindowRecord {
  std::uint64_t trial = 0;
  /// Window ordinal within the trial (0-based).
  std::uint64_t index = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t arrivals = 0;
  /// Arrivals mapped straight through admission (fresh or fault-requeued).
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;
  /// Dropped by admission or expired in the pen.
  std::uint64_t dropped = 0;
  /// Pen tasks released to the scheduler this window.
  std::uint64_t released = 0;
  /// Completions in this window: on time within energy / late / on time but
  /// the account was in deficit.
  std::uint64_t on_time = 0;
  std::uint64_t late = 0;
  std::uint64_t over_energy = 0;
  /// Wall joules drawn over the window.
  double joules = 0.0;
  /// on_time / joules (0 when no energy was drawn).
  double on_time_per_joule = 0.0;
  /// (late + over_energy) / completions in the window (0 when none).
  double missed_rate = 0.0;
  /// Account balance at the boundary (negative = deficit).
  double available = 0.0;
  /// Tasks assigned to cores (running + queued) at the boundary.
  std::uint64_t queue_depth = 0;
  std::uint64_t pen_depth = 0;
  bool emergency = false;
};

/// End-of-trial profit settlement of the econ extension (src/econ): what the
/// trial earned, what its joules cost, and how much offered value it left on
/// the table. Emitted once per trial, only when a non-trivial EconModel ran.
struct ProfitRecord {
  std::uint64_t trial = 0;
  /// Settlement time (the trial's end of simulation).
  double time = 0.0;
  double revenue = 0.0;
  double energy_cost = 0.0;
  double net_profit = 0.0;
  /// Total value the window offered (revenue <= value_offered).
  double value_offered = 0.0;
  /// Finishes that earned revenue / the subset paid at a decayed late rate.
  std::uint64_t paid_finishes = 0;
  std::uint64_t decayed_finishes = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void Record(const MappingDecisionRecord& decision) = 0;
  virtual void Record(const EnergySnapshotRecord& snapshot) = 0;
  /// Default no-op so sinks predating the fault extension keep compiling;
  /// the JSONL sinks emit one "fault" line per event.
  virtual void Record(const FaultEventRecord& fault) { (void)fault; }
  /// Default no-op so sinks predating the governor extension keep compiling;
  /// the JSONL sinks emit one "governor" line per applied action.
  virtual void Record(const GovernorActionRecord& action) { (void)action; }
  /// Default no-op so sinks predating the streaming extension keep
  /// compiling; the JSONL sinks emit one "window" line per closed window.
  virtual void Record(const StreamWindowRecord& window) { (void)window; }
  /// Default no-op so sinks predating the econ extension keep compiling;
  /// the JSONL sinks emit one "profit" line per settled trial.
  virtual void Record(const ProfitRecord& profit) { (void)profit; }
  virtual void Flush() {}
};

/// Writes records as JSON lines to a caller-owned stream. Not synchronized:
/// use from one thread, or wrap via MakeSynchronized.
class JsonlTraceSink final : public TraceSink {
 public:
  /// `os` must outlive the sink.
  explicit JsonlTraceSink(std::ostream& os) : os_(&os) {}

  void Record(const MappingDecisionRecord& decision) override;
  void Record(const EnergySnapshotRecord& snapshot) override;
  void Record(const FaultEventRecord& fault) override;
  void Record(const GovernorActionRecord& action) override;
  void Record(const StreamWindowRecord& window) override;
  void Record(const ProfitRecord& profit) override;
  void Flush() override;

 private:
  std::ostream* os_;
};

/// Wraps `sink` so concurrent trials can share it: each Record call is
/// serialized under a mutex (records carry their trial index, so
/// interleaving across trials is harmless). `sink` must outlive the
/// wrapper.
[[nodiscard]] std::unique_ptr<TraceSink> MakeSynchronized(TraceSink& sink);

/// Opens `path` for writing and returns a synchronized JSONL sink that owns
/// the file (flushed and closed on destruction). Throws
/// std::invalid_argument if the file cannot be opened.
[[nodiscard]] std::unique_ptr<TraceSink> OpenJsonlTraceFile(
    const std::string& path);

}  // namespace ecdra::obs
