#include "policy/scenario_spec.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <type_traits>
#include <utility>

#include "obs/json.hpp"

namespace ecdra::policy {

std::uint64_t Fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Fnv1a64Hex(std::string_view text) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const std::uint64_t hash = Fnv1a64(text);
  std::string hex(16, '0');
  for (int i = 0; i < 16; ++i) {
    hex[i] = kDigits[(hash >> (60 - 4 * i)) & 0xF];
  }
  return hex;
}

namespace {

constexpr std::string_view kHeaderLine = "ecdra-scenario v1";
// v2: the run.governor line joined the result-shaping subset. Bumping the
// header changes every fingerprint, which is exactly right: a v1 checkpoint
// cannot attest what governor produced its trials.
// v3: run.mode and the stream.* block joined — a v2 checkpoint cannot
// attest whether its trials ran fixed-trace or streaming semantics.
// v4: the fault-domain block (run.fault.domain_*, run.fault.domains) and the
// degraded-mode knobs (stream.degraded_*) joined — a v3 checkpoint cannot
// attest whether correlated outages or degraded-mode tightening shaped its
// trials.
// v5: the job block (env.workload.jobs.*, run.jobs.placement) joined — a v4
// checkpoint cannot attest whether gang jobs and precedence chains shaped
// its trials, nor which gang-placement policy chose the core sets.
// v6: the econ block (env.econ.*, run.econ.*) joined — a v5 checkpoint
// cannot attest whether per-task value, SLA tiers, or the energy price
// shaped its trials.
constexpr std::string_view kFingerprintHeaderLine =
    "ecdra-scenario-fingerprint v6";

[[noreturn]] void Invalid(const std::string& why) {
  throw std::invalid_argument(why);
}

std::string Quoted(std::string_view text) {
  return "'" + std::string(text) + "'";
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Splits "a<sep>b<sep>c" into tokens; an empty text is an empty list.
std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> tokens;
  while (!text.empty()) {
    const std::size_t at = text.find(sep);
    tokens.push_back(Trim(text.substr(0, at)));
    if (at == std::string_view::npos) break;
    text.remove_prefix(at + 1);
  }
  return tokens;
}

/// Splits one '@'-joined list item into exactly N fields, or throws naming
/// the expected shape.
template <std::size_t N>
std::array<std::string_view, N> Fields(std::string_view token,
                                       std::string_view shape) {
  const std::vector<std::string_view> parts = Split(token, '@');
  if (parts.size() != N) {
    Invalid(Quoted(token) + " is not a " + std::string(shape) + " item");
  }
  std::array<std::string_view, N> fields;
  for (std::size_t i = 0; i < N; ++i) fields[i] = parts[i];
  return fields;
}

// -- Codecs, chosen by member type. Format and Parse are exact inverses;
// Parse overwrites its output completely and throws std::invalid_argument
// with a one-line reason. --

template <std::unsigned_integral T>
std::string Format(T value) {
  return std::to_string(value);
}

template <std::unsigned_integral T>
void Parse(std::string_view text, T& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (text.empty() || ec != std::errc() || ptr != text.data() + text.size()) {
    Invalid(Quoted(text) + " is not a non-negative integer");
  }
}

std::string Format(double value) { return obs::json::Number(value); }

/// Strict: the whole text must be consumed, no locale, and nan/inf are
/// refused (the canonical text could not spell them back).
void Parse(std::string_view text, double& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (text.empty() || ec != std::errc() ||
      ptr != text.data() + text.size() || !std::isfinite(out)) {
    Invalid(Quoted(text) + " is not a finite number");
  }
}

std::string Format(bool value) { return value ? "true" : "false"; }

void Parse(std::string_view text, bool& out) {
  if (text != "true" && text != "false") {
    Invalid(Quoted(text) + " is not true or false");
  }
  out = text == "true";
}

std::string Format(const std::string& value) { return value; }

void Parse(std::string_view text, std::string& out) { out = text; }

// Enums: Names() lists every spec-parseable value with its spelling.
template <typename E>
struct Spelling {
  E value;
  std::string_view name;
};

constexpr std::array<Spelling<IdlePolicy>, 3> Names(IdlePolicy) {
  return {{{IdlePolicy::kDeepestPState, "deepest"},
           {IdlePolicy::kStayAtLast, "stay"},
           {IdlePolicy::kPowerGated, "gated"}}};
}
constexpr std::array<Spelling<CancelPolicy>, 2> Names(CancelPolicy) {
  return {{{CancelPolicy::kRunToCompletion, "never"},
           {CancelPolicy::kCancelHopelessQueued, "hopeless"}}};
}
constexpr std::array<Spelling<fault::LifetimeDistribution>, 2> Names(
    fault::LifetimeDistribution) {
  return {{{fault::LifetimeDistribution::kExponential, "exponential"},
           {fault::LifetimeDistribution::kWeibull, "weibull"}}};
}
// Batch mode is a stack, not a spec-selectable trial mode.
constexpr std::array<Spelling<RunMode>, 2> Names(RunMode) {
  return {{{RunMode::kFixedTrace, "fixed"}, {RunMode::kStream, "stream"}}};
}
// These two spell themselves in their own modules.
std::array<Spelling<fault::RecoveryPolicy>, 3> Names(fault::RecoveryPolicy) {
  using enum fault::RecoveryPolicy;
  return {{{kDropQueued, fault::RecoveryPolicyName(kDropQueued)},
           {kRequeueToScheduler, fault::RecoveryPolicyName(kRequeueToScheduler)},
           {kMigrateQueued, fault::RecoveryPolicyName(kMigrateQueued)}}};
}
std::array<Spelling<validate::ValidationMode>, 3> Names(
    validate::ValidationMode) {
  using enum validate::ValidationMode;
  return {{{kOff, validate::ValidationModeName(kOff)},
           {kCheap, validate::ValidationModeName(kCheap)},
           {kDeep, validate::ValidationModeName(kDeep)}}};
}

template <typename E>
  requires std::is_enum_v<E>
std::string Format(E value) {
  for (const auto& [choice, name] : Names(value)) {
    if (choice == value) return std::string(name);
  }
  return {};
}

template <typename E>
  requires std::is_enum_v<E>
void Parse(std::string_view text, E& out) {
  std::string valid;
  for (const auto& [choice, name] : Names(out)) {
    if (name == text) {
      out = choice;
      return;
    }
    valid += (valid.empty() ? "" : ", ") + std::string(name);
  }
  Invalid("unknown value " + Quoted(text) + " (valid: " + valid + ")");
}

// '@'-joined list items.
std::string Format(const workload::ArrivalPhase& phase) {
  return Format(phase.num_tasks) + "@" + Format(phase.rate);
}

void Parse(std::string_view text, workload::ArrivalPhase& out) {
  const auto fields = Fields<2>(text, "num_tasks@rate");
  Parse(fields[0], out.num_tasks);
  Parse(fields[1], out.rate);
}

std::string Format(const workload::PriorityClass& cls) {
  return Format(cls.weight) + "@" + Format(cls.probability);
}

void Parse(std::string_view text, workload::PriorityClass& out) {
  const auto fields = Fields<2>(text, "weight@probability");
  Parse(fields[0], out.weight);
  Parse(fields[1], out.probability);
}

std::string Format(const workload::ShapeClass& cls) {
  return Format(cls.value) + "@" + Format(cls.probability);
}

/// A width-0 gang or depth-0 chain is meaningless; probabilities must be
/// > 0 — the generator normalizes them, so 1@3,4@1 reads "3:1 odds".
void Parse(std::string_view text, workload::ShapeClass& out) {
  const auto fields = Fields<2>(text, "value@probability");
  Parse(fields[0], out.value);
  Parse(fields[1], out.probability);
  if (out.value == 0) Invalid("shape values must be >= 1");
  if (out.probability <= 0.0) Invalid("class probabilities must be > 0");
}

std::string Format(const econ::SlaTier& tier) {
  return tier.name + "@" + Format(tier.value_multiplier) + "@" +
         Format(tier.share_multiplier) + "@" + Format(tier.rho_floor) + "@" +
         Format(tier.probability);
}

void Parse(std::string_view text, econ::SlaTier& out) {
  const auto fields = Fields<5>(text, "name@vmult@smult@rhofloor@prob");
  if (fields[0].empty()) Invalid("tier names must be non-empty");
  out.name = fields[0];
  Parse(fields[1], out.value_multiplier);
  Parse(fields[2], out.share_multiplier);
  Parse(fields[3], out.rho_floor);
  Parse(fields[4], out.probability);
  if (out.value_multiplier < 0.0 || out.share_multiplier < 0.0) {
    Invalid("tier multipliers must be >= 0");
  }
  if (out.rho_floor < 0.0 || out.rho_floor > 1.0) {
    Invalid("rho floors must be in [0, 1]");
  }
  if (out.probability <= 0.0) Invalid("tier probabilities must be > 0");
}

// Comma-separated lists of any item codec above.
template <typename T>
std::string Format(const std::vector<T>& items) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += ",";
    out += Format(item);
  }
  return out;
}

template <typename T>
void Parse(std::string_view text, std::vector<T>& out) {
  out.clear();
  for (const std::string_view token : Split(text, ',')) {
    Parse(token, out.emplace_back());
  }
}

std::string Format(const workload::ArrivalSpec& arrivals) {
  return Format(arrivals.phases);
}

void Parse(std::string_view text, workload::ArrivalSpec& out) {
  Parse(text, out.phases);
}

/// A row's range constraint: lo <= value < hi for numbers (and for each
/// element of a number list); nonempty for strings and lists.
struct Bounds {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool nonempty = false;
};

constexpr Bounds kNonNegative{.lo = 0.0};
constexpr Bounds kAtLeastOne{.lo = 1.0};
constexpr Bounds kPStateFloor{.lo = 0.0,
                              .hi = static_cast<double>(cluster::kNumPStates)};
/// Registry names: any non-empty token parses; the registry rejects unknown
/// names at trial setup (examples may register policies the spec layer has
/// never heard of).
constexpr Bounds kNonEmpty{.nonempty = true};

/// Throws naming `text`, the value as written, when `value` is out of
/// `bounds`.
void Check(double value, const Bounds& bounds, std::string_view text) {
  if (value < bounds.lo) {
    Invalid(Quoted(text) + " must be >= " + Format(bounds.lo));
  }
  if (value >= bounds.hi) {
    Invalid(Quoted(text) + " must be < " + Format(bounds.hi));
  }
}

template <typename T>
void Check(const T& value, const Bounds& bounds, std::string_view text) {
  if constexpr (std::is_arithmetic_v<T>) {
    Check(static_cast<double>(value), bounds, text);
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    for (const double element : value) {
      Check(element, bounds, Format(element));
    }
  } else if constexpr (requires { value.empty(); }) {
    if (bounds.nonempty && value.empty()) Invalid("must not be empty");
  }
}

/// The codec of the member `Get` reaches, with `B` checked on parse.
template <auto Get, Bounds B = Bounds{}>
constexpr SpecField::Codec MakeCodec() {
  return {[](const ScenarioSpec& spec) { return Format(Get(spec)); },
          [](ScenarioSpec& spec, std::string_view text) {
            std::remove_cvref_t<decltype(Get(spec))> value{};
            Parse(text, value);
            Check(value, B, text);
            Get(spec) = std::move(value);
          }};
}

// ECDRA_SPEC_CODEC(member[, bounds]): the codec of spec.member.
#define ECDRA_SPEC_CODEC(member, ...)                       \
  MakeCodec<[](auto& spec) -> auto& { return spec.member; } \
            __VA_OPT__(, ) __VA_ARGS__>()

using enum SpecField::Flags;

// The field table: one row per spec key, in canonical emission order
// ({key, codec, flags, CLI flag, value placeholder, switch value, help}).
// cvb.num_machines is deliberately absent: BuildExperimentSetup overrides
// it to num_nodes, so it can never shape a result.
constexpr SpecField kFields[] = {
    {"seed", ECDRA_SPEC_CODEC(master_seed), 0, "--seed", "S",
     {}, "master seed (default: the paper's)"},
    {"env.cluster.num_nodes", ECDRA_SPEC_CODEC(environment.cluster.num_nodes)},
    {"env.cluster.min_processors",
     ECDRA_SPEC_CODEC(environment.cluster.min_processors)},
    {"env.cluster.max_processors",
     ECDRA_SPEC_CODEC(environment.cluster.max_processors)},
    {"env.cluster.min_cores_per_processor",
     ECDRA_SPEC_CODEC(environment.cluster.min_cores_per_processor)},
    {"env.cluster.max_cores_per_processor",
     ECDRA_SPEC_CODEC(environment.cluster.max_cores_per_processor)},
    {"env.cluster.min_power_efficiency",
     ECDRA_SPEC_CODEC(environment.cluster.min_power_efficiency)},
    {"env.cluster.max_power_efficiency",
     ECDRA_SPEC_CODEC(environment.cluster.max_power_efficiency)},
    {"env.cluster.min_step_gain",
     ECDRA_SPEC_CODEC(environment.cluster.min_step_gain)},
    {"env.cluster.max_step_gain",
     ECDRA_SPEC_CODEC(environment.cluster.max_step_gain)},
    {"env.cluster.min_frequency_fraction",
     ECDRA_SPEC_CODEC(environment.cluster.min_frequency_fraction)},
    {"env.cluster.min_p0_power_watts",
     ECDRA_SPEC_CODEC(environment.cluster.min_p0_power_watts)},
    {"env.cluster.max_p0_power_watts",
     ECDRA_SPEC_CODEC(environment.cluster.max_p0_power_watts)},
    {"env.cluster.min_low_voltage",
     ECDRA_SPEC_CODEC(environment.cluster.min_low_voltage)},
    {"env.cluster.max_low_voltage",
     ECDRA_SPEC_CODEC(environment.cluster.max_low_voltage)},
    {"env.cluster.min_high_voltage",
     ECDRA_SPEC_CODEC(environment.cluster.min_high_voltage)},
    {"env.cluster.max_high_voltage",
     ECDRA_SPEC_CODEC(environment.cluster.max_high_voltage)},
    {"env.cvb.num_task_types", ECDRA_SPEC_CODEC(environment.cvb.num_task_types)},
    {"env.cvb.task_mean", ECDRA_SPEC_CODEC(environment.cvb.task_mean)},
    {"env.cvb.task_cov", ECDRA_SPEC_CODEC(environment.cvb.task_cov)},
    {"env.cvb.machine_cov", ECDRA_SPEC_CODEC(environment.cvb.machine_cov)},
    {"env.discretize.num_impulses",
     ECDRA_SPEC_CODEC(environment.discretize.num_impulses)},
    {"env.discretize.tail_clip",
     ECDRA_SPEC_CODEC(environment.discretize.tail_clip)},
    {"env.workload.arrivals", ECDRA_SPEC_CODEC(environment.workload.arrivals)},
    {"env.workload.load_factor_scale",
     ECDRA_SPEC_CODEC(environment.workload.load_factor_scale)},
    {"env.workload.priorities",
     ECDRA_SPEC_CODEC(environment.workload.priority_classes)},
    {"env.workload.jobs.enabled",
     ECDRA_SPEC_CODEC(environment.workload.jobs.enabled), kNoBatch, "--jobs",
     {}, "true",
     "generate map->reduce jobs instead of tasks\n"
     "(shapes from --job-widths / --job-depths)"},
    {"env.workload.jobs.widths",
     ECDRA_SPEC_CODEC(environment.workload.jobs.widths, kNonEmpty), 0,
     "--job-widths", "LIST", {},
     "comma-separated width@probability classes,\n"
     "e.g. 1@0.5,4@0.5 (default 1@1)"},
    {"env.workload.jobs.depths",
     ECDRA_SPEC_CODEC(environment.workload.jobs.depths, kNonEmpty), 0,
     "--job-depths", "LIST", {},
     "comma-separated depth@probability classes\n"
     "(stages per job; default 1@1)"},
    {"env.workload.jobs.deadline_scale",
     ECDRA_SPEC_CODEC(environment.workload.jobs.deadline_scale, kAtLeastOne),
     0, "--job-deadline-scale", "X", {},
     "stretch job deadlines by X (>= 1; default 1)"},
    {"env.budget_task_count", ECDRA_SPEC_CODEC(environment.budget_task_count)},
    {"env.exec_cov", ECDRA_SPEC_CODEC(environment.exec_cov)},
    {"run.idle_policy", ECDRA_SPEC_CODEC(idle_policy), 0, "--idle", "POLICY",
     {}, "deepest | stay | gated    (default deepest)"},
    {"run.cancel_policy", ECDRA_SPEC_CODEC(cancel_policy), 0, "--cancel",
     "POLICY", {}, "never | hopeless          (default never)"},
    {"run.pstate_transition_latency",
     ECDRA_SPEC_CODEC(pstate_transition_latency), kNoBatch},
    {"run.power_cov", ECDRA_SPEC_CODEC(power_cov), kNoBatch},
    {"run.governor", ECDRA_SPEC_CODEC(governor, kNonEmpty), kNoBatch, "--governor",
     "NAME", {},
     "online energy governor (default static)"},
    {"run.filter.en.low_multiplier",
     ECDRA_SPEC_CODEC(filter_options.energy.low_multiplier)},
    {"run.filter.en.mid_multiplier",
     ECDRA_SPEC_CODEC(filter_options.energy.mid_multiplier)},
    {"run.filter.en.high_multiplier",
     ECDRA_SPEC_CODEC(filter_options.energy.high_multiplier)},
    {"run.filter.en.low_depth",
     ECDRA_SPEC_CODEC(filter_options.energy.low_depth)},
    {"run.filter.en.high_depth",
     ECDRA_SPEC_CODEC(filter_options.energy.high_depth)},
    {"run.filter.en.scale_by_priority",
     ECDRA_SPEC_CODEC(filter_options.energy.scale_fair_share_by_priority)},
    {"run.filter.en.priority_baseline",
     ECDRA_SPEC_CODEC(filter_options.energy.priority_baseline)},
    {"run.filter.rho_thresh",
     ECDRA_SPEC_CODEC(filter_options.robustness_threshold, kNonNegative), 0,
     "--rho-thresh", "P", {}, "robustness threshold      (default 0.5)"},
    {"run.fault.mtbf", ECDRA_SPEC_CODEC(fault.mtbf, kNonNegative), kNoBatch,
     "--fault-mtbf", "T", {},
     "mean time to permanent core failure\n"
     "(simulated seconds; 0 = fault-free, default)"},
    {"run.fault.lifetime", ECDRA_SPEC_CODEC(fault.lifetime), kNoBatch},
    {"run.fault.weibull_shape", ECDRA_SPEC_CODEC(fault.weibull_shape),
     kNoBatch},
    {"run.fault.repair_time", ECDRA_SPEC_CODEC(fault.repair_time, kNonNegative),
     kNoBatch, "--fault-duration", "T", {},
     "mean outage before a failed core is repaired\n"
     "(0 = failures are permanent, default)"},
    {"run.fault.throttle_interval",
     ECDRA_SPEC_CODEC(fault.throttle_interval, kNonNegative), kNoBatch,
     "--throttle-interval", "T", {},
     "mean time between throttles (0 = off)"},
    {"run.fault.throttle_duration",
     ECDRA_SPEC_CODEC(fault.throttle_duration, kNonNegative), kNoBatch,
     "--throttle-duration", "T", {}, "mean throttle length (0 = off, default)"},
    {"run.fault.throttle_floor",
     ECDRA_SPEC_CODEC(fault.throttle_floor, kPStateFloor), kNoBatch,
     "--throttle-floor", "S", {},
     "P-state floor while throttled (default 2)"},
    {"run.fault.horizon", ECDRA_SPEC_CODEC(fault.horizon), kNoBatch},
    {"run.fault.domain_mtbf", ECDRA_SPEC_CODEC(fault.domain_mtbf, kNonNegative),
     kNoBatch, "--domain-mtbf", "T", {},
     "mean time to whole-domain outage (simulated\n"
     "seconds; 0 = no domain faults, default)"},
    {"run.fault.domain_repair_time",
     ECDRA_SPEC_CODEC(fault.domain_repair_time, kNonNegative), kNoBatch,
     "--domain-repair", "T", {},
     "mean outage before a downed domain repairs\n"
     "(0 = outages are permanent, default)"},
    {"run.fault.cascade_throttle", ECDRA_SPEC_CODEC(fault.cascade_throttle),
     kNoBatch, "--cascade-throttle", {}, "true",
     "propagate per-core throttles to every core in\n"
     "the same fault domain"},
    // Any text parses (empty = the derived node-per-domain grouping);
    // fault::ResolveFaultDomains validates it against the cluster at setup.
    {"run.fault.domains", ECDRA_SPEC_CODEC(fault_domains), kNoBatch,
     "--fault-domains", "S", {},
     "comma-separated 'name:lo-hi' core ranges\n"
     "(default: one domain per cluster node)"},
    {"run.recovery", ECDRA_SPEC_CODEC(recovery), kNoBatch, "--recovery",
     "POLICY", {}, "drop | requeue | migrate  (default drop)"},
    {"run.jobs.placement", ECDRA_SPEC_CODEC(gang_placement, kNonEmpty), 0,
     "--gang-policy", "NAME", {}, "gang placement heuristic (default pack)"},
    {"run.mode", ECDRA_SPEC_CODEC(mode), kNoBatch, "--stream", {}, "stream",
     "serve against an energy rate, not a budget\n"
     "(requires stream.energy_rate > 0)"},
    {"stream.energy_rate", ECDRA_SPEC_CODEC(stream.energy_rate, kNonNegative),
     0, "--energy-rate", "R", {},
     "joules per second accruing into the account"},
    {"stream.accrual_cap", ECDRA_SPEC_CODEC(stream.accrual_cap, kNonNegative),
     0, "--accrual-cap", "J", {}, "account ceiling in joules (0 = derived)"},
    {"stream.initial_energy", ECDRA_SPEC_CODEC(stream.initial_energy)},
    {"stream.window_length",
     ECDRA_SPEC_CODEC(stream.window_length, kNonNegative), 0,
     "--stream-window", "T", {},
     "rolling metrics window, simulated seconds\n"
     "(0 = derived from the environment, default)"},
    {"stream.emergency_enter",
     ECDRA_SPEC_CODEC(stream.emergency_enter_fraction)},
    {"stream.emergency_exit", ECDRA_SPEC_CODEC(stream.emergency_exit_fraction)},
    {"stream.admission", ECDRA_SPEC_CODEC(stream.admission, kNonEmpty), 0,
     "--admission", "NAME", {},
     "admission policy (default none)"},
    {"stream.defer_rho", ECDRA_SPEC_CODEC(stream.defer_rho)},
    {"stream.drop_rho", ECDRA_SPEC_CODEC(stream.drop_rho)},
    {"stream.fairness_wait", ECDRA_SPEC_CODEC(stream.fairness_wait)},
    {"stream.degraded_enter",
     ECDRA_SPEC_CODEC(stream.degraded_enter_fraction, kNonNegative), 0,
     "--degraded-enter", "F", {},
     "enter degraded mode once this fraction of\n"
     "cores is lost to faults (default 0.25)"},
    {"stream.degraded_exit",
     ECDRA_SPEC_CODEC(stream.degraded_exit_fraction, kNonNegative), 0,
     "--degraded-exit", "F", {},
     "leave it at or below this fraction,\n"
     "0 <= exit < enter <= 1 (default 0.1)"},
    {"stream.degraded_rho_scale",
     ECDRA_SPEC_CODEC(stream.degraded_rho_scale, kAtLeastOne), 0,
     "--degraded-rho-scale", "X", {},
     "multiply rho admission thresholds by X while\n"
     "degraded (>= 1; default 1.5)"},
    {"env.econ.values", ECDRA_SPEC_CODEC(econ.type_values, kNonNegative),
     kNoBatch, "--econ-values", "LIST", {},
     "per-type revenue values, cycled over task\n"
     "types (e.g. 1,5,20; default 1)"},
    {"env.econ.tiers", ECDRA_SPEC_CODEC(econ.tiers), kNoBatch, "--sla-tiers",
     "LIST", {},
     "comma-separated name@vmult@smult@rhofloor@prob\n"
     "tiers, e.g. gold@3@2@0.9@0.2,be@1@1@0@0.8\n"
     "(default: one neutral tier)"},
    {"run.econ.enabled", ECDRA_SPEC_CODEC(econ_enabled), kNoBatch, "--econ",
     {}, "true",
     "meter revenue against the energy bill (try\n"
     "econ-greedy, +sla, value-density, profit-guard)"},
    {"run.econ.energy_price",
     ECDRA_SPEC_CODEC(econ.energy_price, kNonNegative), kNoBatch,
     "--energy-price", "X", {},
     "price per joule drawn (default 0)"},
    {"run.econ.value_decay", ECDRA_SPEC_CODEC(econ.value_decay, kNonNegative),
     kNoBatch, "--value-decay", "W", {},
     "late revenue decays to 0 over W seconds past\n"
     "the deadline (default 0 = late earns nothing)"},
    {"grid.heuristics", ECDRA_SPEC_CODEC(grid.heuristics), kHarness},
    {"grid.filter_variants", ECDRA_SPEC_CODEC(grid.filter_variants), kHarness},
    {"grid.batch_heuristics", ECDRA_SPEC_CODEC(grid.batch_heuristics),
     kHarness},
    {"harness.trials", ECDRA_SPEC_CODEC(num_trials, kAtLeastOne), kHarness,
     "--trials", "N", {}, "Monte-Carlo trials        (default 50)"},
    {"harness.validation", ECDRA_SPEC_CODEC(validation), kHarness,
     "--validate", "MODE", {},
     "off | cheap | deep invariant checks (default\n"
     "off; violations are recorded, not fatal)"},
};

#undef ECDRA_SPEC_CODEC

std::string Serialize(std::string_view header, const ScenarioSpec& spec,
                      bool fingerprinted_only) {
  std::string out;
  out.reserve(2048);
  out += header;
  out += '\n';
  for (const SpecField& field : kFields) {
    if (fingerprinted_only && !field.fingerprinted()) continue;
    out += field.key;
    out += " = ";
    out += field.codec.format(spec);
    out += '\n';
  }
  return out;
}

/// "key = value, key = value" for every row `select` accepts whose value in
/// `spec` differs from its default, in canonical order.
template <typename Select>
std::string DescribeNonDefault(const ScenarioSpec& spec, Select select) {
  const ScenarioSpec defaults;
  std::string out;
  for (const SpecField& field : kFields) {
    if (!select(field)) continue;
    const std::string value = field.codec.format(spec);
    if (value == field.codec.format(defaults)) continue;
    if (!out.empty()) out += ", ";
    out += field.key;
    out += " = ";
    out += value;
  }
  return out;
}

const SpecField& FindSpecField(std::string_view key) {
  for (const SpecField& field : kFields) {
    if (field.key == key) return field;
  }
  Invalid("unknown key " + Quoted(key));
}

[[noreturn]] void ParseFail(std::string_view line, const std::string& why) {
  throw std::invalid_argument("scenario spec: " + why + " in line '" +
                              std::string(line) + "'");
}

}  // namespace

std::span<const SpecField> SpecFields() noexcept { return kFields; }

double ParseSpecNumber(std::string_view text) {
  double value = 0.0;
  Parse(text, value);
  return value;
}

std::uint64_t ParseSpecCount(std::string_view text) {
  std::uint64_t value = 0;
  Parse(text, value);
  return value;
}

std::string CanonicalSpecText(const ScenarioSpec& spec) {
  return Serialize(kHeaderLine, spec, /*fingerprinted_only=*/false);
}

std::string FingerprintText(const ScenarioSpec& spec) {
  return Serialize(kFingerprintHeaderLine, spec, /*fingerprinted_only=*/true);
}

std::string SpecFingerprint(const ScenarioSpec& spec) {
  return Fnv1a64Hex(FingerprintText(spec));
}

ScenarioSpec ParseScenarioSpec(std::string_view text) {
  ScenarioSpec spec;
  bool saw_header = false;

  while (!text.empty()) {
    const std::size_t newline = text.find('\n');
    const std::string_view raw_line = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                         : newline + 1);
    const std::string_view line = Trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    if (!saw_header) {
      if (line != kHeaderLine) {
        ParseFail(line, "expected header '" + std::string(kHeaderLine) + "'");
      }
      saw_header = true;
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) ParseFail(line, "expected 'key = value'");
    try {
      FindSpecField(Trim(line.substr(0, eq)))
          .codec.parse(spec, Trim(line.substr(eq + 1)));
    } catch (const std::invalid_argument& error) {
      ParseFail(line, error.what());
    }
  }
  if (!saw_header) {
    throw std::invalid_argument("scenario spec: empty input (expected '" +
                                std::string(kHeaderLine) + "')");
  }
  return spec;
}

void RequireStreamCompatible(RunMode mode, const StreamSpec& stream) {
  if (mode == RunMode::kStream) {
    if (stream.energy_rate > 0.0) return;
    throw StreamSpecError(
        "stream mode requires stream.energy_rate > 0 (set --energy-rate)");
  }
  ScenarioSpec spec;
  spec.stream = stream;
  const std::string fields =
      DescribeNonDefault(spec, [](const SpecField& field) {
        return field.key.starts_with("stream.");
      });
  if (fields.empty()) return;
  throw StreamSpecError(
      (mode == RunMode::kBatch ? std::string("batch") : Format(mode)) +
      " mode cannot honor a streaming scenario: " + fields +
      " (run with --stream, or drop the stream block)");
}

void RequireBatchCompatible(const ScenarioSpec& spec) {
  RequireStreamCompatible(RunMode::kBatch, spec.stream);
  const std::string fields =
      DescribeNonDefault(spec, [](const SpecField& field) {
        return (field.flags & SpecField::kNoBatch) != 0;
      });
  if (fields.empty()) return;
  throw BatchSpecError("batch mode cannot honor " + fields +
                       " (reset these keys, or use the immediate-mode stack)");
}

}  // namespace ecdra::policy
