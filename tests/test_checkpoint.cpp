// Checkpoint/resume: exact JSON round-trip of trial results, typed errors
// for every corruption mode (torn tail, flipped bits, torn header, blank
// tail), salvage-mode healing, duplicate-triple semantics, config
// fingerprinting, and the headline guarantee — a killed-and-resumed sweep
// (salvaged or not) is bit-identical to an uninterrupted one.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/experiment_runner.hpp"
#include "util/crc32.hpp"

namespace ecdra::sim {
namespace {

SetupOptions SmallOptions() {
  SetupOptions options;
  options.cluster.num_nodes = 3;
  options.cvb.num_task_types = 10;
  options.workload.arrivals =
      workload::ArrivalSpec::PaperBursty(15, 30, 1.0 / 8.0, 1.0 / 48.0);
  return options;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "ecdra_checkpoint_" + name + ".jsonl";
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.good());
  os << content;
}

/// Seals a serialized JSON object with the v5 CRC suffix, exactly as the
/// writer does — hand-crafted corruption fixtures go through this so only
/// the deliberately damaged part is wrong.
std::string Sealed(std::string object_json) {
  object_json.pop_back();  // the closing '}'
  char hex[9];
  const std::string_view digest =
      util::Crc32Hex(util::Crc32(object_json), hex);
  object_json += ",\"crc\":\"";
  object_json += digest;
  object_json += "\"}";
  return object_json;
}

std::string ValidHeaderLine() {
  return Sealed(
             "{\"record\":\"header\",\"schema\":7,\"seed\":\"5\","
             "\"config\":\"x\"}") +
         "\n";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// EXPECT_EQ on every simulation-deterministic field (bit-exact doubles;
/// excludes wall-clock decision_seconds).
void ExpectBitIdentical(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.window_size, b.window_size);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.missed_deadlines, b.missed_deadlines);
  EXPECT_EQ(a.discarded, b.discarded);
  EXPECT_EQ(a.finished_late, b.finished_late);
  EXPECT_EQ(a.on_time_but_over_budget, b.on_time_but_over_budget);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.weighted_total, b.weighted_total);
  EXPECT_EQ(a.weighted_completed, b.weighted_completed);
  EXPECT_EQ(a.weighted_missed, b.weighted_missed);
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.energy_exhausted_at.has_value(),
            b.energy_exhausted_at.has_value());
  if (a.energy_exhausted_at && b.energy_exhausted_at) {
    EXPECT_EQ(*a.energy_exhausted_at, *b.energy_exhausted_at);
  }
  EXPECT_EQ(a.estimated_energy_remaining, b.estimated_energy_remaining);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(TrialResultJson, RoundTripIsBitExact) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.collect_counters = true;
  options.validation = validate::ValidationMode::kCheap;
  const TrialResult original = RunSingleTrial(setup, "SQ", "en+rob", 0,
                                              options);

  const TrialResult restored = TrialResultFromJson(TrialResultToJson(original));
  ExpectBitIdentical(original, restored);
  // Counters and validation ride along exactly.
  for (const obs::CounterField& field : obs::CounterFields()) {
    EXPECT_EQ(original.counters.*(field.slot), restored.counters.*(field.slot))
        << field.name;
  }
  EXPECT_EQ(original.counters.decision_seconds,
            restored.counters.decision_seconds);
  EXPECT_EQ(original.validation.mode, restored.validation.mode);
  EXPECT_EQ(original.validation.checks_run, restored.validation.checks_run);
  EXPECT_EQ(original.validation.violations, restored.validation.violations);
}

TEST(TrialResultJson, NullExhaustedAtAndViolationsRoundTrip) {
  TrialResult result;
  result.window_size = 10;
  result.completed = 10;
  result.total_energy = 0x1.8db3c4579b52dp+26;  // exactness probe
  result.validation.mode = validate::ValidationMode::kDeep;
  result.validation.checks_run = 7;
  result.validation.violations = 3;
  result.validation.by_check.push_back(
      validate::Violation{"pmf-mass", "lost mass", 12.5, 3});

  const TrialResult restored = TrialResultFromJson(TrialResultToJson(result));
  EXPECT_FALSE(restored.energy_exhausted_at.has_value());
  EXPECT_EQ(restored.total_energy, 0x1.8db3c4579b52dp+26);
  ASSERT_EQ(restored.validation.by_check.size(), 1u);
  EXPECT_EQ(restored.validation.by_check[0], result.validation.by_check[0]);
}

TEST(TrialResultJson, EconBlockRoundTripsBitExact) {
  TrialResult result;
  result.window_size = 10;
  result.completed = 10;
  result.econ.enabled = true;
  result.econ.revenue = 0x1.91eb851eb851fp+6;  // exactness probes
  result.econ.energy_cost = 0x1.2c0p+7;
  result.econ.net_profit = result.econ.revenue - result.econ.energy_cost;
  result.econ.value_offered = 250.0;
  result.econ.paid_finishes = 42;
  result.econ.decayed_finishes = 3;
  result.econ.premium_total = 17;
  result.econ.premium_on_time = 11;

  const std::string json = TrialResultToJson(result);
  EXPECT_NE(json.find("\"econ\":{"), std::string::npos) << json;
  const TrialResult restored = TrialResultFromJson(json);
  EXPECT_EQ(restored.econ, result.econ);
}

TEST(TrialResultJson, EconOffTrialsKeepThePreEconFormat) {
  // A trial without econ metering must serialize without any "econ" key —
  // and a pre-econ record line (no "econ" object) must load with the econ
  // block disabled, so old stores stay resumable.
  TrialResult result;
  result.window_size = 10;
  const std::string json = TrialResultToJson(result);
  EXPECT_EQ(json.find("\"econ\""), std::string::npos) << json;
  const TrialResult restored = TrialResultFromJson(json);
  EXPECT_FALSE(restored.econ.enabled);
  EXPECT_EQ(restored.econ, EconStats{});
}

TEST(TrialResultJson, RejectsTaskRecords) {
  TrialResult result;
  result.task_records.emplace_back();
  try {
    (void)TrialResultToJson(result);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kUnsupportedOptions);
  }
}

TEST(CheckpointWriter, WritesHeaderAndStoreLoadsTriples) {
  const std::string path = TempPath("writer_roundtrip");
  const CheckpointHeader header{.master_seed = 3, .config_hash = "abc"};
  TrialResult a;
  a.window_size = 5;
  a.completed = 4;
  TrialResult b;
  b.window_size = 5;
  b.completed = 2;
  {
    CheckpointWriter writer(path, header);
    writer.Append("SQ", "en+rob", 0, a);
    writer.Append("SQ", "en+rob", 2, b);
  }

  const CheckpointStore store = CheckpointStore::Load(path);
  EXPECT_EQ(store.header(), header);
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.Find("SQ", "en+rob", 0), nullptr);
  EXPECT_EQ(store.Find("SQ", "en+rob", 0)->completed, 4u);
  ASSERT_NE(store.Find("SQ", "en+rob", 2), nullptr);
  EXPECT_EQ(store.Find("SQ", "en+rob", 2)->completed, 2u);
  EXPECT_EQ(store.Find("SQ", "en+rob", 1), nullptr);
  EXPECT_EQ(store.Find("LL", "en+rob", 0), nullptr);
  EXPECT_FALSE(store.dropped_partial_tail());
  std::remove(path.c_str());
}

TEST(CheckpointWriter, AppendsToMatchingFileAndDuplicateLastWins) {
  const std::string path = TempPath("writer_append");
  const CheckpointHeader header{.master_seed = 3, .config_hash = "abc"};
  TrialResult first;
  first.completed = 1;
  TrialResult second;
  second.completed = 2;
  {
    CheckpointWriter writer(path, header);
    writer.Append("SQ", "en", 0, first);
  }
  {
    // Re-opening with the same header appends; the re-written triple's
    // later record wins on load.
    CheckpointWriter writer(path, header);
    writer.Append("SQ", "en", 0, second);
  }
  const CheckpointStore store = CheckpointStore::Load(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find("SQ", "en", 0)->completed, 2u);
  std::remove(path.c_str());
}

TEST(CheckpointWriter, RefusesMismatchedExistingFile) {
  const std::string path = TempPath("writer_mismatch");
  {
    CheckpointWriter writer(path,
                            {.master_seed = 3, .config_hash = "abc"});
  }
  try {
    CheckpointWriter writer(path, {.master_seed = 4, .config_hash = "abc"});
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kConfigMismatch);
  }
  std::remove(path.c_str());
}

TEST(CheckpointStore, TruncatedFinalLineIsTypedStrictAndDroppedTolerant) {
  const std::string path = TempPath("truncated");
  TrialResult result;
  result.completed = 1;
  {
    CheckpointWriter writer(path, {.master_seed = 5, .config_hash = "x"});
    writer.Append("SQ", "en", 0, result);
  }
  // Simulate a SIGKILL mid-write: cut the (valid) final record in half.
  {
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    WriteFile(path, text + "{\"record\":\"trial\",\"heuristic\":\"SQ");
  }
  try {
    (void)CheckpointStore::Load(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kTruncatedRecord);
  }
  const CheckpointStore store =
      CheckpointStore::Load(path, {.allow_partial_tail = true});
  EXPECT_TRUE(store.dropped_partial_tail());
  EXPECT_EQ(store.size(), 1u);  // the committed record survives
  std::remove(path.c_str());
}

TEST(CheckpointStore, WrongSchemaVersionIsTyped) {
  const std::string path = TempPath("schema");
  WriteFile(path,
            "{\"record\":\"header\",\"schema\":99,\"seed\":\"5\","
            "\"config\":\"x\"}\n");
  try {
    (void)CheckpointStore::Load(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kSchemaVersion);
  }
  std::remove(path.c_str());
}

TEST(CheckpointStore, SchemaV1StoreIsRefusedNamingBothVersions) {
  // Stores written before the spec-based fingerprint (schema 1) hash a
  // different preimage, so their config field is not comparable; the load
  // must refuse with a typed error that names both versions instead of
  // silently resuming against a stale fingerprint.
  const std::string path = TempPath("schema_v1");
  WriteFile(path,
            "{\"record\":\"header\",\"schema\":1,\"seed\":\"5\","
            "\"config\":\"deadbeefdeadbeef\"}\n");
  try {
    (void)CheckpointStore::Load(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kSchemaVersion);
    const std::string message = error.what();
    EXPECT_NE(message.find("schema version 1"), std::string::npos) << message;
    EXPECT_NE(message.find("this build reads 7"), std::string::npos)
        << message;
  }
  std::remove(path.c_str());
}

TEST(CheckpointStore, SchemaV2StoreIsRefusedNamingBothVersions) {
  // Schema 2 predates the run.governor fingerprint line; a v2 store cannot
  // attest what governor produced its trials, so the load refuses with a
  // typed error naming both schema versions.
  const std::string path = TempPath("schema_v2");
  WriteFile(path,
            "{\"record\":\"header\",\"schema\":2,\"seed\":\"5\","
            "\"config\":\"deadbeefdeadbeef\"}\n");
  try {
    (void)CheckpointStore::Load(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kSchemaVersion);
    const std::string message = error.what();
    EXPECT_NE(message.find("schema version 2"), std::string::npos) << message;
    EXPECT_NE(message.find("this build reads 7"), std::string::npos)
        << message;
  }
  std::remove(path.c_str());
}

TEST(CheckpointStore, SchemaV3StoreIsRefusedNamingBothVersions) {
  // Schema 3 predates the run.mode / stream.* fingerprint lines and the
  // per-trial stream aggregate; a v3 store cannot attest whether its trials
  // ran fixed-trace or streaming semantics, so the load refuses.
  const std::string path = TempPath("schema_v3");
  WriteFile(path,
            "{\"record\":\"header\",\"schema\":3,\"seed\":\"5\","
            "\"config\":\"deadbeefdeadbeef\"}\n");
  try {
    (void)CheckpointStore::Load(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kSchemaVersion);
    const std::string message = error.what();
    EXPECT_NE(message.find("schema version 3"), std::string::npos) << message;
    EXPECT_NE(message.find("this build reads 7"), std::string::npos)
        << message;
  }
  std::remove(path.c_str());
}

TEST(CheckpointStore, SchemaV4StoreIsRefusedNamingBothVersions) {
  // Schema 4 predates per-line CRCs, the domain-fault fingerprint lines,
  // and the migration scalars; salvage must not mistake its crc-less lines
  // for torn-write damage and destroy a healthy store, so the schema check
  // outranks the CRC check — strict and salvage loads both refuse.
  const std::string path = TempPath("schema_v4");
  WriteFile(path,
            "{\"record\":\"header\",\"schema\":4,\"seed\":\"5\","
            "\"config\":\"deadbeefdeadbeef\"}\n");
  for (const bool salvage : {false, true}) {
    try {
      (void)CheckpointStore::Load(path, {.salvage = salvage});
      FAIL() << "expected CheckpointError (salvage=" << salvage << ")";
    } catch (const CheckpointError& error) {
      EXPECT_EQ(error.kind(), CheckpointErrorKind::kSchemaVersion);
      const std::string message = error.what();
      EXPECT_NE(message.find("schema version 4"), std::string::npos)
          << message;
      EXPECT_NE(message.find("this build reads 7"), std::string::npos)
          << message;
    }
  }
  // The refused file is untouched: salvage never truncates a logical refusal.
  EXPECT_NE(ReadFile(path).find("\"schema\":4"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointStore, SchemaV5StoreIsRefusedNamingBothVersions) {
  // Schema 5 predates the job block (env.workload.jobs.*, run.jobs.placement)
  // in the fingerprint preimage and the per-trial "jobs" aggregate; a v5
  // store cannot attest whether gang jobs shaped its trials, so both strict
  // and salvage loads refuse.
  const std::string path = TempPath("schema_v5");
  WriteFile(path, Sealed("{\"record\":\"header\",\"schema\":5,\"seed\":\"5\","
                         "\"config\":\"deadbeefdeadbeef\"}") +
                      "\n");
  for (const bool salvage : {false, true}) {
    try {
      (void)CheckpointStore::Load(path, {.salvage = salvage});
      FAIL() << "expected CheckpointError (salvage=" << salvage << ")";
    } catch (const CheckpointError& error) {
      EXPECT_EQ(error.kind(), CheckpointErrorKind::kSchemaVersion);
      const std::string message = error.what();
      EXPECT_NE(message.find("schema version 5"), std::string::npos)
          << message;
      EXPECT_NE(message.find("this build reads 7"), std::string::npos)
          << message;
    }
  }
  EXPECT_NE(ReadFile(path).find("\"schema\":5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointStore, SchemaV6StoreIsRefusedNamingBothVersions) {
  // Schema 6 predates the econ block (env.econ.*, run.econ.*) in the
  // fingerprint preimage and the per-trial "econ" aggregate; a v6 store
  // cannot attest whether value-aware policies shaped its trials, so both
  // strict and salvage loads refuse.
  const std::string path = TempPath("schema_v6");
  WriteFile(path, Sealed("{\"record\":\"header\",\"schema\":6,\"seed\":\"5\","
                         "\"config\":\"deadbeefdeadbeef\"}") +
                      "\n");
  for (const bool salvage : {false, true}) {
    try {
      (void)CheckpointStore::Load(path, {.salvage = salvage});
      FAIL() << "expected CheckpointError (salvage=" << salvage << ")";
    } catch (const CheckpointError& error) {
      EXPECT_EQ(error.kind(), CheckpointErrorKind::kSchemaVersion);
      const std::string message = error.what();
      EXPECT_NE(message.find("schema version 6"), std::string::npos)
          << message;
      EXPECT_NE(message.find("this build reads 7"), std::string::npos)
          << message;
    }
  }
  EXPECT_NE(ReadFile(path).find("\"schema\":6"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointStore, MalformedInteriorRecordIsTyped) {
  const std::string path = TempPath("bad_record");
  WriteFile(path, ValidHeaderLine() + "{not json}\n");
  try {
    (void)CheckpointStore::Load(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kBadRecord);
  }
  std::remove(path.c_str());
}

TEST(CheckpointStore, MissingHeaderAndMissingFileAreTyped) {
  const std::string path = TempPath("no_header");
  WriteFile(path, "{\"record\":\"trial\"}\n");
  try {
    (void)CheckpointStore::Load(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kBadHeader);
  }
  std::remove(path.c_str());
  try {
    (void)CheckpointStore::Load(TempPath("does_not_exist"));
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kIo);
  }
}

// ---------------------------------------------------------------------------
// Torn-write matrix: each damage mode is refused (typed) under a strict load
// and healed under salvage, which truncates the file to its longest valid
// prefix and reports how many records were dropped.
// ---------------------------------------------------------------------------

/// Header + `trials` sequential trial records written through the real
/// writer, so every line carries a correct CRC.
void WriteStore(const std::string& path, std::size_t trials) {
  CheckpointWriter writer(path, {.master_seed = 5, .config_hash = "x"});
  for (std::size_t i = 0; i < trials; ++i) {
    TrialResult result;
    result.window_size = 10;
    result.completed = i + 1;
    writer.Append("SQ", "en", i, result);
  }
}

TEST(CheckpointSalvage, TruncatedMidRecordRefusedStrictHealedBySalvage) {
  const std::string path = TempPath("salvage_torn_tail");
  WriteStore(path, 2);
  WriteFile(path, ReadFile(path) + "{\"record\":\"trial\",\"heuristic\":\"SQ");
  try {
    (void)CheckpointStore::Load(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kTruncatedRecord);
  }
  const CheckpointStore store = CheckpointStore::Load(path, {.salvage = true});
  EXPECT_TRUE(store.header_valid());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dropped_records(), 1u);
  // The file was truncated to the valid prefix: a strict load now succeeds.
  EXPECT_EQ(CheckpointStore::Load(path).size(), 2u);
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, CorruptedCrcRefusedStrictHealedBySalvage) {
  const std::string path = TempPath("salvage_bit_rot");
  WriteStore(path, 3);
  // Flip payload bits in the *second* trial record (line 3): bit rot in the
  // middle, with a perfectly good record after it.
  std::string text = ReadFile(path);
  std::size_t line_start = 0;
  for (int skipped = 0; skipped < 2; ++skipped) {
    line_start = text.find('\n', line_start) + 1;
  }
  const std::size_t hit = text.find("\"record\":\"trial\"", line_start);
  ASSERT_NE(hit, std::string::npos);
  text[hit + 10] = 'x';  // "trial" -> "xrial"; the line's CRC no longer holds
  WriteFile(path, text);

  // Strict refuses even with the partial-tail allowance: flipped bits are
  // not a torn tail.
  try {
    (void)CheckpointStore::Load(path, {.allow_partial_tail = true});
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kCrcMismatch);
  }
  // Salvage keeps everything before the damage; the good record *after* the
  // damage is gone too (append-only files have no trustworthy frame resync)
  // and is counted so the caller can say how many trials re-run.
  const CheckpointStore store = CheckpointStore::Load(path, {.salvage = true});
  EXPECT_TRUE(store.header_valid());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.dropped_records(), 2u);
  EXPECT_EQ(CheckpointStore::Load(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, TornHeaderRefusedStrictRecreatedAfterSalvage) {
  const std::string path = TempPath("salvage_torn_header");
  WriteFile(path, "{\"record\":\"head");  // header write cut by a crash
  try {
    (void)CheckpointStore::Load(path, {.allow_partial_tail = true});
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kBadHeader);
  }
  const CheckpointStore store = CheckpointStore::Load(path, {.salvage = true});
  EXPECT_FALSE(store.header_valid());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dropped_records(), 1u);
  // The salvaged file is empty; the writer starts it over atomically.
  WriteStore(path, 1);
  EXPECT_EQ(CheckpointStore::Load(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, BlankTailLineRefusedStrictHealedBySalvage) {
  const std::string path = TempPath("salvage_blank_tail");
  WriteStore(path, 1);
  WriteFile(path, ReadFile(path) + "\n");  // committed blank line
  for (const bool allow_partial : {false, true}) {
    try {
      (void)CheckpointStore::Load(path, {.allow_partial_tail = allow_partial});
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& error) {
      EXPECT_EQ(error.kind(), CheckpointErrorKind::kBadRecord);
    }
  }
  const CheckpointStore store = CheckpointStore::Load(path, {.salvage = true});
  EXPECT_TRUE(store.header_valid());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.dropped_records(), 1u);
  EXPECT_EQ(CheckpointStore::Load(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, CrcValidButSemanticallyBadRecordIsNeverSalvaged) {
  // A record that passed its CRC was committed intact: if it is wrong it is
  // wrong by construction (a writer bug), and papering over it would hide
  // the bug — salvage refuses exactly like a strict load.
  const std::string path = TempPath("salvage_semantic");
  WriteFile(path, ValidHeaderLine() +
                      Sealed("{\"record\":\"trial\",\"heuristic\":\"SQ\","
                             "\"filter\":\"en\",\"trial\":0,\"result\":{}}") +
                      "\n");
  for (const bool salvage : {false, true}) {
    try {
      (void)CheckpointStore::Load(path, {.salvage = salvage});
      FAIL() << "expected CheckpointError (salvage=" << salvage << ")";
    } catch (const CheckpointError& error) {
      EXPECT_EQ(error.kind(), CheckpointErrorKind::kBadRecord);
    }
  }
  std::remove(path.c_str());
}

TEST(ConfigFingerprint, SensitiveToResultsShapingOptionsOnly) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  const std::string base = ConfigFingerprint(setup, options);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, ConfigFingerprint(setup, options));  // deterministic

  // A different sampled environment changes the hash.
  const ExperimentSetup other = BuildExperimentSetup(4, SmallOptions());
  EXPECT_NE(base, ConfigFingerprint(other, options));

  // Trial-shaping knobs change the hash...
  RunOptions changed = options;
  changed.filter_options.robustness_threshold = 0.75;
  EXPECT_NE(base, ConfigFingerprint(setup, changed));
  changed = options;
  changed.fault.mtbf = 1000.0;
  EXPECT_NE(base, ConfigFingerprint(setup, changed));
  // ...including the econ block: an econ run settles profit per trial, so a
  // resume must never splice its records into a paper-metric series.
  changed = options;
  changed.econ_enabled = true;
  changed.econ.type_values = {1.0, 4.0};
  EXPECT_NE(base, ConfigFingerprint(setup, changed));

  // ...execution mechanics do not.
  RunOptions mechanics = options;
  mechanics.num_threads = 7;
  mechanics.num_trials = 999;
  mechanics.trial_timeout = 5.0;
  mechanics.max_attempts = 3;
  mechanics.validation = validate::ValidationMode::kDeep;
  mechanics.checkpoint_path = "/tmp/elsewhere.jsonl";
  mechanics.collect_counters = true;
  EXPECT_EQ(base, ConfigFingerprint(setup, mechanics));
}

TEST(ConfigFingerprint, DistinguishesGangPlacements) {
  // Gang placement chooses the core sets of every job, so a store written
  // under one placement must never resume a run under another.
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions pack;
  pack.gang_placement = "pack";
  RunOptions serial = pack;
  serial.gang_placement = "serial";
  EXPECT_NE(ConfigFingerprint(setup, pack), ConfigFingerprint(setup, serial));
}

TEST(Resume, InterruptedSweepResumesBitIdentical) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const std::string path = TempPath("resume_golden");
  std::remove(path.c_str());

  RunOptions options;
  options.num_trials = 6;
  options.num_threads = 2;

  // Uninterrupted reference run.
  const SweepResult reference = RunSweep(setup, "SQ", "en+rob", options);
  ASSERT_TRUE(reference.complete());
  ASSERT_EQ(reference.results.size(), 6u);

  // "Crashed" run: only the first 3 trials reach the checkpoint.
  RunOptions partial = options;
  partial.num_trials = 3;
  partial.checkpoint_path = path;
  ASSERT_TRUE(RunSweep(setup, "SQ", "en+rob", partial).complete());

  // Resumed run: 3 trials served from the store, 3 executed fresh.
  const CheckpointStore store = CheckpointStore::Load(path);
  RunOptions resumed_options = options;
  resumed_options.checkpoint_path = path;
  resumed_options.resume = &store;
  const SweepResult resumed = RunSweep(setup, "SQ", "en+rob", resumed_options);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.trials_resumed, 3u);
  ASSERT_EQ(resumed.results.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    ExpectBitIdentical(reference.results[i], resumed.results[i]);
  }

  // The checkpoint now holds all six trials; a further resume re-runs none.
  const CheckpointStore full = CheckpointStore::Load(path);
  RunOptions all_resumed = options;
  all_resumed.resume = &full;
  const SweepResult nothing_to_do = RunSweep(setup, "SQ", "en+rob",
                                             all_resumed);
  EXPECT_EQ(nothing_to_do.trials_resumed, 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    ExpectBitIdentical(reference.results[i], nothing_to_do.results[i]);
  }
  std::remove(path.c_str());
}

TEST(Resume, SalvagedResumeIsBitIdenticalToUninterrupted) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const std::string path = TempPath("resume_salvage");
  std::remove(path.c_str());

  RunOptions options;
  options.num_trials = 6;
  options.num_threads = 1;  // append order == trial order

  const SweepResult reference = RunSweep(setup, "SQ", "en+rob", options);
  ASSERT_TRUE(reference.complete());
  ASSERT_EQ(reference.results.size(), 6u);

  // Full run, then a SIGKILL torn tail: the final record loses half itself.
  RunOptions checkpointed = options;
  checkpointed.checkpoint_path = path;
  ASSERT_TRUE(RunSweep(setup, "SQ", "en+rob", checkpointed).complete());
  {
    std::string text = ReadFile(path);
    ASSERT_EQ(text.back(), '\n');
    const std::size_t final_start = text.rfind('\n', text.size() - 2) + 1;
    text.resize(final_start + (text.size() - final_start) / 2);
    WriteFile(path, text);
  }

  // Salvage drops the torn record and truncates; resuming re-runs exactly
  // that trial and lands bit-identical to the uninterrupted reference.
  const CheckpointStore store =
      CheckpointStore::Load(path, {.salvage = true});
  EXPECT_TRUE(store.header_valid());
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.dropped_records(), 1u);
  RunOptions resumed_options = checkpointed;
  resumed_options.resume = &store;
  const SweepResult resumed = RunSweep(setup, "SQ", "en+rob", resumed_options);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.trials_resumed, 5u);
  ASSERT_EQ(resumed.results.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    ExpectBitIdentical(reference.results[i], resumed.results[i]);
  }
  // The healed checkpoint is whole again: a strict load serves all six.
  EXPECT_EQ(CheckpointStore::Load(path).size(), 6u);
  std::remove(path.c_str());
}

TEST(Resume, RefusesStoreFromDifferentConfig) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  const ExperimentSetup other = BuildExperimentSetup(4, SmallOptions());
  const std::string path = TempPath("resume_mismatch");
  std::remove(path.c_str());

  RunOptions options;
  options.num_trials = 2;
  options.checkpoint_path = path;
  ASSERT_TRUE(RunSweep(other, "SQ", "en+rob", options).complete());

  const CheckpointStore store = CheckpointStore::Load(path);
  RunOptions resume_options;
  resume_options.num_trials = 2;
  resume_options.resume = &store;
  try {
    (void)RunSweep(setup, "SQ", "en+rob", resume_options);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kConfigMismatch);
  }
  std::remove(path.c_str());
}

TEST(Resume, CheckpointingRejectsPerTaskCollection) {
  const ExperimentSetup setup = BuildExperimentSetup(3, SmallOptions());
  RunOptions options;
  options.num_trials = 1;
  options.checkpoint_path = TempPath("records_reject");
  options.collect_task_records = true;
  try {
    (void)RunSweep(setup, "SQ", "en+rob", options);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& error) {
    EXPECT_EQ(error.kind(), CheckpointErrorKind::kUnsupportedOptions);
  }
}

}  // namespace
}  // namespace ecdra::sim
