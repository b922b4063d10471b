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

/// EXPECT_EQ on every result-table row and block flag (bit-exact doubles;
/// counters, whose decision_seconds is wall-clock, are not rows).
void ExpectBitIdentical(const TrialResult& a, const TrialResult& b) {
  for (const ResultBlock& block : ResultBlocks()) {
    EXPECT_EQ(block.enabled(a), block.enabled(b)) << block.key;
    for (const ResultField& field : block.fields) {
      EXPECT_EQ(field.codec.get(a), field.codec.get(b))
          << block.key << '.' << field.key;
    }
  }
}

/// The zero of `field`'s kind (null for a number-or-null row).
ResultValue ZeroValue(const ResultField& field) {
  switch (field.codec.kind) {
    case ResultField::Kind::kCount:
      return std::uint64_t{0};
    case ResultField::Kind::kNumber:
      return 0.0;
    case ResultField::Kind::kNumberOrNull:
      break;
  }
  return std::monostate{};
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

TEST(TrialResultJson, EveryResultFieldRoundTripsBitExact) {
  // Every block on and every row a distinct value: the n-th row holds n if
  // it is a count, else an exactness probe divided by n. The expected text
  // pins the record layout (order, keys, nesting), so a moved row or a
  // changed omission rule fails here before it reaches the golden grid.
  TrialResult result;
  std::uint64_t n = 0;
  for (const ResultBlock& block : ResultBlocks()) {
    if (block.set_enabled != nullptr) block.set_enabled(result, true);
    for (const ResultField& field : block.fields) {
      ++n;
      field.codec.set(result, field.codec.kind == ResultField::Kind::kCount
                                  ? ResultValue(n)
                                  : ResultValue(0x1.8db3c4579b52dp+26 /
                                                static_cast<double>(n)));
    }
  }
  ASSERT_EQ(n, 54u);
  ASSERT_EQ(ResultBlocks().size(), 4u);
  const std::string json = TrialResultToJson(result);
  EXPECT_EQ(json,
            "{\"window\":1,\"completed\":2,\"missed\":3,\"discarded\":4,"
            "\"late\":5,\"over_budget\":6,\"cancelled\":7,\"failures\":8,"
            "\"repairs\":9,\"throttles\":10,\"lost\":11,\"remapped\":12,"
            "\"remapped_on_time\":13,\"domain_outages\":14,"
            "\"domain_repairs\":15,\"migrated\":16,\"migrated_on_time\":17,"
            "\"weighted_total\":5791958.298269733,"
            "\"weighted_completed\":5487118.387834484,"
            "\"weighted_missed\":5212762.4684427595,"
            "\"energy\":4964535.684231199,\"exhausted_at\":4738874.9713116,"
            "\"energy_remaining\":4532836.92908066,"
            "\"makespan\":4343968.723702299,"
            "\"stream\":{\"windows\":25,\"deferred\":26,"
            "\"admission_dropped\":27,\"released\":28,\"forced\":29,"
            "\"pen_peak\":30,\"emergency_entries\":31,"
            "\"emergency_seconds\":3257976.542776725,\"degraded_entries\":33,"
            "\"degraded_seconds\":3066330.8637898588,"
            "\"min_available\":2978721.41053872,"
            "\"final_available\":2895979.1491348664},"
            "\"jobs\":{\"jobs\":37,\"on_time\":38,\"late\":39,\"failed\":40,"
            "\"gangs_placed\":41,\"gang_waits\":42,\"gangs_requeued\":43,"
            "\"gangs_abandoned\":44,\"pending_peak\":45,"
            "\"gang_wait_seconds\":2266418.46454033},"
            "\"econ\":{\"revenue\":2218196.795082025,"
            "\"energy_cost\":2171984.3618511497,"
            "\"net_profit\":2127658.1503848,"
            "\"value_offered\":2085104.987377104,\"paid_finishes\":51,"
            "\"decayed_finishes\":52,\"premium_total\":53,"
            "\"premium_on_time\":54}}");
  const TrialResult restored = TrialResultFromJson(json);
  EXPECT_EQ(TrialResultToJson(restored), json);
  ExpectBitIdentical(result, restored);

  // An unset number-or-null row is written as null and reads back unset.
  // An omit-when-zero row at zero is not written and reads back as zero.
  for (const ResultBlock& block : ResultBlocks()) {
    for (const ResultField& field : block.fields) {
      if (field.codec.kind != ResultField::Kind::kNumberOrNull &&
          !field.omit_when_zero) {
        continue;
      }
      TrialResult zeroed = result;
      field.codec.set(zeroed, ZeroValue(field));
      const std::string text = TrialResultToJson(zeroed);
      const std::string key = "\"" + std::string(field.key) + "\":";
      if (field.omit_when_zero) {
        EXPECT_EQ(text.find(key), std::string::npos) << text;
      } else {
        EXPECT_NE(text.find(key + "null"), std::string::npos) << text;
      }
      const TrialResult back = TrialResultFromJson(text);
      EXPECT_EQ(field.codec.get(back), ZeroValue(field)) << field.key;
      EXPECT_EQ(TrialResultToJson(back), text);
      ExpectBitIdentical(zeroed, back);
    }
  }

  // A disabled block is not written, so an older record without it loads
  // with the block off and all of its rows at zero.
  for (const ResultBlock& block : ResultBlocks()) {
    if (block.set_enabled == nullptr) continue;
    TrialResult off = result;
    block.set_enabled(off, false);
    const std::string text = TrialResultToJson(off);
    EXPECT_EQ(text.find("\"" + std::string(block.key) + "\":"),
              std::string::npos)
        << text;
    const TrialResult back = TrialResultFromJson(text);
    EXPECT_FALSE(block.enabled(back)) << block.key;
    for (const ResultField& field : block.fields) {
      EXPECT_EQ(field.codec.get(back), ZeroValue(field)) << field.key;
    }
    EXPECT_EQ(TrialResultToJson(back), text);
  }

  // A trial that ran no extension keeps the paper-era record.
  EXPECT_EQ(TrialResultToJson(TrialResult{}),
            "{\"window\":0,\"completed\":0,\"missed\":0,\"discarded\":0,"
            "\"late\":0,\"over_budget\":0,\"cancelled\":0,\"failures\":0,"
            "\"repairs\":0,\"throttles\":0,\"lost\":0,\"remapped\":0,"
            "\"remapped_on_time\":0,\"weighted_total\":0,"
            "\"weighted_completed\":0,\"weighted_missed\":0,\"energy\":0,"
            "\"exhausted_at\":null,\"energy_remaining\":0,\"makespan\":0}");
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
  // 4294967303 is 2^32 + 7: narrowed to 32 bits it would read as schema 7,
  // so the refusal must name the value as written.
  const std::string path = TempPath("schema");
  const auto header = [](const std::string& schema) {
    return "{\"record\":\"header\",\"schema\":" + schema +
           ",\"seed\":\"5\",\"config\":\"x\"}";
  };
  for (const auto& [schema, line] :
       {std::pair{std::string("99"), header("99")},
        std::pair{std::string("4294967303"), Sealed(header("4294967303"))}}) {
    WriteFile(path, line + "\n");
    try {
      (void)CheckpointStore::Load(path);
      FAIL() << "expected CheckpointError: " << line;
    } catch (const CheckpointError& error) {
      EXPECT_EQ(error.kind(), CheckpointErrorKind::kSchemaVersion);
      const std::string message = error.what();
      EXPECT_NE(message.find("schema version " + schema + ","),
                std::string::npos)
          << message;
    }
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
  // the bug — salvage refuses exactly like a strict load. 1e20 is past
  // 2^64, where converting to an integer is undefined: it must be refused
  // before the conversion.
  const std::string path = TempPath("salvage_semantic");
  for (const auto& [result, detail] :
       {std::pair{"{}", "missing field \"window\""},
        std::pair{"{\"window\":1e20}",
                  "field \"window\" is not a non-negative integer"}}) {
    WriteFile(path, ValidHeaderLine() +
                        Sealed("{\"record\":\"trial\",\"heuristic\":\"SQ\","
                               "\"filter\":\"en\",\"trial\":0,\"result\":" +
                               std::string(result) + "}") +
                        "\n");
    for (const bool salvage : {false, true}) {
      try {
        (void)CheckpointStore::Load(path, {.salvage = salvage});
        FAIL() << "expected CheckpointError (salvage=" << salvage << ")";
      } catch (const CheckpointError& error) {
        EXPECT_EQ(error.kind(), CheckpointErrorKind::kBadRecord);
        const std::string message = error.what();
        const std::string prefix = "checkpoint [bad-record]: ";
        EXPECT_EQ(message.find(prefix), 0u) << message;
        EXPECT_EQ(message.find(prefix, 1), std::string::npos) << message;
        EXPECT_NE(message.find(": line 2: " + std::string(detail)),
                  std::string::npos)
            << message;
      }
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
