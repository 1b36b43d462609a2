// DeltaWal unit tests: the RWAL wire format, torn-tail truncation,
// adversarial length prefixes (never allocate past the file), fsync-failure
// poisoning, the RCKP checkpoint container, and OpenDurable end to end —
// reopen after clean shutdown, checkpoint rotation, and torn-checkpoint
// fallback all recover a byte-identical engine. The kill -9 crash matrix
// lives in crash_recovery_test.cc.

#include "src/core/wal.h"

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/failpoint.h"
#include "src/base/metrics.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/parser/parser.h"

namespace relspec {
namespace {

std::string TestPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "wal_test_" + info->name() + "_" + name;
}

// Removes every file the durable engine may have created around `wal_path`.
void CleanWalFiles(const std::string& wal_path) {
  for (const char* suffix :
       {"", ".prev", ".tmp", ".ckpt", ".ckpt.prev", ".ckpt.tmp"}) {
    std::remove((wal_path + suffix).c_str());
  }
}

constexpr char kSource[] = R"(
  Meets(0, Tony).
  Next(Tony, Jan).  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
)";

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(WalFormatTest, HeaderRoundTrip) {
  std::string bytes = DeltaWal::SerializeHeader(0xfeedfacecafebeefull);
  ASSERT_EQ(bytes.size(), DeltaWal::kHeaderSize);
  auto scan = DeltaWal::ScanBytes(bytes);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->base_fingerprint, 0xfeedfacecafebeefull);
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_bytes, bytes.size());
  EXPECT_EQ(scan->truncated_bytes, 0u);
}

TEST(WalFormatTest, RecordsRoundTrip) {
  std::string bytes = DeltaWal::SerializeHeader(7);
  bytes += DeltaWal::SerializeRecord(1, 11, "+ P(a).\n");
  bytes += DeltaWal::SerializeRecord(2, 22, "");
  bytes += DeltaWal::SerializeRecord(3, 33, "- P(a).\n+ P(b).\n");
  auto scan = DeltaWal::ScanBytes(bytes);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0].seq, 1u);
  EXPECT_EQ(scan->records[0].fingerprint, 11u);
  EXPECT_EQ(scan->records[0].payload, "+ P(a).\n");
  EXPECT_EQ(scan->records[1].payload, "");
  EXPECT_EQ(scan->records[2].fingerprint, 33u);
  EXPECT_EQ(scan->valid_bytes, bytes.size());
  EXPECT_EQ(scan->truncated_bytes, 0u);
}

TEST(WalFormatTest, BadHeaderIsInvalidArgument) {
  // Too short.
  EXPECT_FALSE(DeltaWal::ScanBytes("RWA").ok());
  // Wrong magic, full length.
  std::string bytes = DeltaWal::SerializeHeader(1);
  std::string bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(DeltaWal::ScanBytes(bad).ok());
  // Flipped bit in the stamped fingerprint: header checksum catches it.
  bad = bytes;
  bad[9] ^= 0x40;
  auto scan = DeltaWal::ScanBytes(bad);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
}

// Cutting the file at *every* byte position must yield exactly the records
// whose bytes fully survive — the longest valid prefix — and report the rest
// as a torn tail. This is the property `kill -9` mid-write depends on.
TEST(WalFormatTest, TornTailAtEveryByteYieldsLongestValidPrefix) {
  std::string bytes = DeltaWal::SerializeHeader(7);
  std::vector<size_t> record_ends;
  bytes += DeltaWal::SerializeRecord(1, 11, "+ P(a).\n");
  record_ends.push_back(bytes.size());
  bytes += DeltaWal::SerializeRecord(2, 22, "- Q(b, c).\n");
  record_ends.push_back(bytes.size());
  bytes += DeltaWal::SerializeRecord(3, 33, "+ R(f(a)).\n");
  record_ends.push_back(bytes.size());

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::string prefix = bytes.substr(0, cut);
    auto scan = DeltaWal::ScanBytes(prefix);
    if (cut < DeltaWal::kHeaderSize) {
      EXPECT_FALSE(scan.ok()) << cut;
      continue;
    }
    ASSERT_TRUE(scan.ok()) << "cut at " << cut;
    size_t expect = 0;
    while (expect < record_ends.size() && record_ends[expect] <= cut) {
      ++expect;
    }
    EXPECT_EQ(scan->records.size(), expect) << "cut at " << cut;
    size_t valid_end = expect == 0 ? DeltaWal::kHeaderSize
                                   : record_ends[expect - 1];
    EXPECT_EQ(scan->valid_bytes, valid_end) << "cut at " << cut;
    EXPECT_EQ(scan->truncated_bytes, cut - valid_end) << "cut at " << cut;
  }
}

TEST(WalFormatTest, CorruptMiddleRecordTruncatesFromThere) {
  std::string bytes = DeltaWal::SerializeHeader(7);
  bytes += DeltaWal::SerializeRecord(1, 11, "+ P(a).\n");
  size_t first_end = bytes.size();
  bytes += DeltaWal::SerializeRecord(2, 22, "- Q(b).\n");
  bytes += DeltaWal::SerializeRecord(3, 33, "+ R(c).\n");
  bytes[first_end + DeltaWal::kRecordHeaderSize] ^= 0x01;  // record 2 payload
  auto scan = DeltaWal::ScanBytes(bytes);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->valid_bytes, first_end);
  EXPECT_EQ(scan->truncated_bytes, bytes.size() - first_end);
}

TEST(WalFormatTest, SequenceGapTruncates) {
  std::string bytes = DeltaWal::SerializeHeader(7);
  bytes += DeltaWal::SerializeRecord(1, 11, "+ P(a).\n");
  size_t first_end = bytes.size();
  bytes += DeltaWal::SerializeRecord(3, 33, "+ R(c).\n");  // gap: no seq 2
  auto scan = DeltaWal::ScanBytes(bytes);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->valid_bytes, first_end);
}

// A corrupt u32 length prefix must never be trusted: neither a huge value
// (would over-allocate — ASan guards the attempt) nor one that merely
// overruns the remaining file may produce a record or an error; both are
// torn tails.
TEST(WalFormatTest, LengthPrefixBeyondFileSizeIsTornTailNotAllocation) {
  std::string base = DeltaWal::SerializeHeader(7);
  base += DeltaWal::SerializeRecord(1, 11, "+ P(a).\n");
  size_t valid_end = base.size();

  for (uint32_t evil_len :
       {0xffffffffu, 0x7fffffffu, DeltaWal::kMaxPayloadBytes + 1, 1000u}) {
    std::string bytes = base;
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>(evil_len >> (8 * i)));
    }
    // A plausible rest-of-record-header, but far fewer payload bytes than
    // the length prefix claims.
    bytes.append(24, '\x5a');
    auto scan = DeltaWal::ScanBytes(bytes);
    ASSERT_TRUE(scan.ok()) << evil_len;
    EXPECT_EQ(scan->records.size(), 1u) << evil_len;
    EXPECT_EQ(scan->valid_bytes, valid_end) << evil_len;
    EXPECT_EQ(scan->truncated_bytes, bytes.size() - valid_end) << evil_len;
  }
}

// ---------------------------------------------------------------------------
// Append / sync / poisoning
// ---------------------------------------------------------------------------

TEST(WalAppendTest, CreateAppendScanRoundTrip) {
  std::string path = TestPath("log");
  CleanWalFiles(path);
  WalOptions opts;
  opts.fsync = FsyncMode::kAlways;
  auto wal = DeltaWal::Create(path, 42, opts);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE((*wal)->Append(100, "+ P(a).\n").ok());
  ASSERT_TRUE((*wal)->Append(200, "- P(a).\n").ok());
  EXPECT_EQ((*wal)->next_seq(), 3u);
  ASSERT_TRUE((*wal)->Close().ok());

  auto scan = DeltaWal::Scan(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->base_fingerprint, 42u);
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].fingerprint, 100u);
  EXPECT_EQ(scan->records[1].payload, "- P(a).\n");
  CleanWalFiles(path);
}

TEST(WalAppendTest, ScanMissingFileIsNotFound) {
  auto scan = DeltaWal::Scan(TestPath("nonexistent"));
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kNotFound);
}

TEST(WalAppendTest, OpenForAppendTruncatesTornTailAndContinuesChain) {
  std::string path = TestPath("log");
  CleanWalFiles(path);
  auto wal = DeltaWal::Create(path, 42);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(100, "+ P(a).\n").ok());
  ASSERT_TRUE((*wal)->Close().ok());

  // Simulate a torn append: half a record of garbage at the tail.
  {
    FILE* f = fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    fwrite("\x13\x00\x00\x00garbage", 1, 11, f);
    fclose(f);
  }
  auto scan = DeltaWal::Scan(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  ASSERT_GT(scan->truncated_bytes, 0u);

  auto reopened = DeltaWal::OpenForAppend(path, *scan);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->next_seq(), 2u);
  ASSERT_TRUE((*reopened)->Append(200, "- P(a).\n").ok());
  ASSERT_TRUE((*reopened)->Close().ok());

  auto rescan = DeltaWal::Scan(path);
  ASSERT_TRUE(rescan.ok());
  ASSERT_EQ(rescan->records.size(), 2u);
  EXPECT_EQ(rescan->records[1].seq, 2u);
  EXPECT_EQ(rescan->truncated_bytes, 0u);
  CleanWalFiles(path);
}

TEST(WalAppendTest, FailedFsyncPoisonsTheLog) {
  std::string path = TestPath("log");
  CleanWalFiles(path);
  auto wal = DeltaWal::Create(path, 42);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(failpoint::Configure("wal.fsync=error").ok());
  Status st = (*wal)->Append(100, "+ P(a).\n");
  failpoint::Clear();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE((*wal)->broken());
  Status again = (*wal)->Append(200, "+ P(b).\n");
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  CleanWalFiles(path);
}

// A directory sync stays best effort, but every failure is counted.
TEST(WalAppendTest, FailedDirectorySyncIsCounted) {
  std::string path = TestPath("log");
  CleanWalFiles(path);
  MetricsRegistry::Global().Reset();
  EnableMetrics(true);
  auto failures = [] {
    return MetricsRegistry::Global().Snapshot().counter(
        "wal.dir_fsync_failures");
  };
  ASSERT_TRUE(failpoint::Configure("wal.dir_fsync=error").ok());
  auto wal = DeltaWal::Create(path, 42);  // fsync=always syncs the directory
  failpoint::Clear();
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(failures(), 1u);
  DeltaWal::SyncDir(path);  // a real, working sync
  EXPECT_EQ(failures(), 1u);
  DeltaWal::SyncDir(TestPath("no-such-dir") + "/log");  // open fails
  EXPECT_EQ(failures(), 2u);
  EnableMetrics(false);
  MetricsRegistry::Global().Reset();
  ASSERT_TRUE((*wal)->Close().ok());
  CleanWalFiles(path);
}

TEST(WalAppendTest, BatchModeSyncsEveryN) {
  std::string path = TestPath("log");
  CleanWalFiles(path);
  WalOptions opts;
  opts.fsync = FsyncMode::kBatch;
  opts.batch_every = 2;
  auto wal = DeltaWal::Create(path, 42, opts);
  ASSERT_TRUE(wal.ok());
  // The wal.fsync site only evaluates when a sync actually runs: appends
  // 1 and 3 must not sync, appends 2 and 4 must.
  ASSERT_TRUE(failpoint::Configure("wal.fsync=off").ok());
  uint64_t before = failpoint::HitCount("wal.fsync");
  ASSERT_TRUE((*wal)->Append(1, "+ P(a).\n").ok());
  EXPECT_EQ(failpoint::HitCount("wal.fsync"), before);
  ASSERT_TRUE((*wal)->Append(2, "+ P(b).\n").ok());
  EXPECT_EQ(failpoint::HitCount("wal.fsync"), before + 1);
  ASSERT_TRUE((*wal)->Append(3, "+ P(c).\n").ok());
  EXPECT_EQ(failpoint::HitCount("wal.fsync"), before + 1);
  ASSERT_TRUE((*wal)->Append(4, "+ P(d).\n").ok());
  EXPECT_EQ(failpoint::HitCount("wal.fsync"), before + 2);
  ASSERT_TRUE((*wal)->Close().ok());
  failpoint::Clear();
  CleanWalFiles(path);
}

TEST(WalAppendTest, ParseFsyncModeNames) {
  EXPECT_TRUE(ParseFsyncMode("always").ok());
  EXPECT_TRUE(ParseFsyncMode("batch").ok());
  EXPECT_TRUE(ParseFsyncMode("off").ok());
  EXPECT_FALSE(ParseFsyncMode("sometimes").ok());
  EXPECT_STREQ(FsyncModeName(FsyncMode::kBatch), "batch");
}

// ---------------------------------------------------------------------------
// Checkpoint container
// ---------------------------------------------------------------------------

SymbolTable SampleSymbols() {
  SymbolTable symbols;
  EXPECT_TRUE(symbols.InternPredicate("P", 2, true).ok());
  EXPECT_TRUE(symbols.InternPredicate("Q", 1, false).ok());
  EXPECT_TRUE(symbols.InternFunction("f", 1).ok());
  symbols.InternConstant("b");  // deliberately not alphabetical: order is
  symbols.InternConstant("a");  // interning history, and must round-trip
  symbols.InternVariable("t");
  return symbols;
}

TEST(CheckpointFormatTest, RoundTrip) {
  std::string bytes =
      SerializeCheckpoint(77, SampleSymbols(), "P(a).\n", "SNAPBYTES");
  auto data = ParseCheckpoint(bytes);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->fingerprint, 77u);
  EXPECT_EQ(data->program_text, "P(a).\n");
  EXPECT_EQ(data->snapshot_bytes, "SNAPBYTES");
  ASSERT_EQ(data->symbols.num_predicates(), 2u);
  EXPECT_EQ(data->symbols.predicate(0).name, "P");
  EXPECT_EQ(data->symbols.predicate(0).arity, 2);
  EXPECT_TRUE(data->symbols.predicate(0).functional);
  EXPECT_FALSE(data->symbols.predicate(1).functional);
  ASSERT_EQ(data->symbols.num_functions(), 1u);
  EXPECT_EQ(data->symbols.function(0).name, "f");
  ASSERT_EQ(data->symbols.num_constants(), 2u);
  EXPECT_EQ(data->symbols.constant_name(0), "b");  // interning order kept
  EXPECT_EQ(data->symbols.constant_name(1), "a");
  ASSERT_EQ(data->symbols.num_variables(), 1u);
}

TEST(CheckpointFormatTest, EveryFlippedBitIsRejected) {
  std::string bytes = SerializeCheckpoint(77, SampleSymbols(), "P(a).\n",
                                          "SNAP");
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] ^= 0x10;
    auto data = ParseCheckpoint(bad);
    EXPECT_FALSE(data.ok()) << "flip at byte " << i;
  }
}

// Hostile length and count fields must fail before any allocation sized by
// them. Overwriting a field breaks the checksum too, but the point stands
// either way: rejection must come with no attempt to reserve 4 GiB (ASan
// would flag the allocation if the field were trusted first).
TEST(CheckpointFormatTest, LengthFieldsBeyondFileAreInvalidArgument) {
  // Empty symbol table: the four count fields are zeros directly after the
  // fingerprint, and the program length follows them.
  std::string good = SerializeCheckpoint(77, SymbolTable(), "P(a).\n", "SNAP");
  const size_t pred_count_off = 4 + 4 + 8 + 8;   // magic|version|checksum|fp
  const size_t prog_len_off = pred_count_off + 16;  // four zero counts
  for (size_t off : {pred_count_off, prog_len_off}) {
    for (uint32_t evil : {0xffffffffu, 0x7fffffffu,
                          static_cast<uint32_t>(good.size())}) {
      std::string bad = good;
      for (int i = 0; i < 4; ++i) {
        bad[off + i] = static_cast<char>(evil >> (8 * i));
      }
      auto data = ParseCheckpoint(bad);
      ASSERT_FALSE(data.ok()) << off << "/" << evil;
      EXPECT_EQ(data.status().code(), StatusCode::kInvalidArgument)
          << off << "/" << evil;
    }
  }
}

TEST(CheckpointFormatTest, TruncatedFileIsInvalidArgument) {
  std::string bytes = SerializeCheckpoint(77, SampleSymbols(), "P(a).\n",
                                          "SNAP");
  for (size_t cut : {size_t{0}, size_t{3}, size_t{15}, size_t{20},
                     size_t{30}, size_t{45}, bytes.size() - 1}) {
    EXPECT_FALSE(ParseCheckpoint(bytes.substr(0, cut)).ok()) << cut;
  }
}

// ---------------------------------------------------------------------------
// OpenDurable end to end
// ---------------------------------------------------------------------------

struct EngineState {
  std::string spec_bytes;
  uint64_t fingerprint = 0;
};

EngineState StateOf(FunctionalDatabase* db) {
  EngineState s;
  auto spec = db->BuildGraphSpec();
  EXPECT_TRUE(spec.ok());
  if (spec.ok()) s.spec_bytes = Snapshot::Serialize(*spec);
  s.fingerprint = db->Fingerprint();
  return s;
}

TEST(OpenDurableTest, FreshOpenCreatesLogAndReopenIsByteIdentical) {
  std::string path = TestPath("wal");
  CleanWalFiles(path);
  RecoveryStats rec;
  auto db = FunctionalDatabase::OpenDurable(kSource, path, {}, {}, &rec);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(rec.created);
  EXPECT_TRUE((*db)->durable());

  ASSERT_TRUE((*db)->LogAndApplyDeltas("+ Meets(0, Jan).\n").ok());
  ASSERT_TRUE((*db)->LogAndApplyDeltas("- Meets(0, Jan).\n+ Next(Jan, Jan).\n")
                  .ok());
  EngineState before = StateOf(db->get());
  db->reset();  // clean shutdown: destructor syncs + closes

  // Reference: the same batches applied to a never-persisted engine.
  auto ref = FunctionalDatabase::FromSource(kSource);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE((*ref)->ApplyDeltaText("+ Meets(0, Jan).\n").ok());
  ASSERT_TRUE(
      (*ref)->ApplyDeltaText("- Meets(0, Jan).\n+ Next(Jan, Jan).\n").ok());
  EngineState ref_state = StateOf(ref->get());

  RecoveryStats rec2;
  auto reopened = FunctionalDatabase::OpenDurable(kSource, path, {}, {}, &rec2);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(rec2.created);
  EXPECT_EQ(rec2.replayed_batches, 2u);
  EngineState after = StateOf(reopened->get());
  EXPECT_EQ(after.spec_bytes, before.spec_bytes);
  EXPECT_EQ(after.spec_bytes, ref_state.spec_bytes);
  EXPECT_EQ(after.fingerprint, ref_state.fingerprint);
  CleanWalFiles(path);
}

TEST(OpenDurableTest, NoopBatchIsLoggedForSymbolStability) {
  std::string path = TestPath("wal");
  CleanWalFiles(path);
  auto db = FunctionalDatabase::OpenDurable(kSource, path);
  ASSERT_TRUE(db.ok());
  // Deleting an absent fact is a noop: its parse interns `Ghost` only into
  // the batch's own copy of the table, which is dropped. It is logged anyway,
  // because OK means "logged" for every batch, and its replay is a noop.
  const size_t constants = (*db)->program().symbols.num_constants();
  const uint64_t fingerprint = (*db)->Fingerprint();
  auto stats = (*db)->LogAndApplyDeltas("- Meets(0, Ghost).\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->noops, 1u);
  EXPECT_EQ((*db)->wal()->next_seq(), 2u);
  EXPECT_EQ((*db)->program().symbols.num_constants(), constants);
  EXPECT_EQ((*db)->Fingerprint(), fingerprint);

  // An effective batch after the noop interns `Ghost` for real; both
  // engines must agree after recovery, byte for byte.
  ASSERT_TRUE((*db)->LogAndApplyDeltas("+ Meets(0, Ghost).\n").ok());
  EngineState before = StateOf(db->get());
  db->reset();

  auto reopened = FunctionalDatabase::OpenDurable(kSource, path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(StateOf(reopened->get()).spec_bytes, before.spec_bytes);
  EXPECT_EQ(StateOf(reopened->get()).fingerprint, before.fingerprint);
  CleanWalFiles(path);
}

// The regression that motivated seeded re-parse: deleting and re-inserting
// a fact moves it to the tail of the program, so the rendered checkpoint
// text mentions constants in a different order than the engine interned
// them. Recovery through the checkpoint must still be byte-identical to the
// engine that never went through disk at all.
TEST(OpenDurableTest, CheckpointAfterDeleteReinsertIsByteIdentical) {
  std::string path = TestPath("wal");
  CleanWalFiles(path);
  const char* source = "Meets(0, Tony).\nNext(Tony, Jan).\n";
  const char* batches[] = {
      "- Meets(0, Tony).\n+ Meets(0, Tony).\n",  // Tony moves to the tail
      "+ Next(Jan, Tony).\n",
  };

  auto ref = FunctionalDatabase::FromSource(source);
  ASSERT_TRUE(ref.ok());
  for (const char* b : batches) {
    ASSERT_TRUE((*ref)->ApplyDeltaText(b).ok());
  }
  EngineState want = StateOf(ref->get());

  {
    auto db = FunctionalDatabase::OpenDurable(source, path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->LogAndApplyDeltas(batches[0]).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());  // anchor AFTER the reorder
    ASSERT_TRUE((*db)->LogAndApplyDeltas(batches[1]).ok());
  }
  RecoveryStats rec;
  auto db = FunctionalDatabase::OpenDurable(source, path, {}, {}, &rec);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(rec.checkpoint_loaded);  // the checkpoint must validate
  EXPECT_FALSE(rec.used_fallback);
  EngineState got = StateOf(db->get());
  EXPECT_EQ(got.spec_bytes, want.spec_bytes);
  EXPECT_EQ(got.fingerprint, want.fingerprint);
  CleanWalFiles(path);
}

// Queries and membership probes naming constants the engine lacks must not
// change what a checkpoint stores. When reads interned such names, the
// checkpoint paired the original program's table with a snapshot built from
// the grown one; recovery rejected it, fell back to `.prev` and dropped the
// batch acknowledged after the checkpoint. Both deltas use existing
// constants: a new constant would rebuild the table and hide the bug.
TEST(OpenDurableTest, FreshNameReadsKeepEveryAckedBatch) {
  std::string path = TestPath("wal");
  CleanWalFiles(path);
  auto db = FunctionalDatabase::OpenDurable(kSource, path);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (const char* text : {"?(t) Meets(t, Bob).", "?(x) Next(Carol, x).",
                           "? Meets(3, Dave)."}) {
    auto q = ParseQuery(text, (*db)->program().symbols);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto answer = AnswerQuery(db->get(), *q);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(answer->IsEmpty()) << text;
  }
  auto holds = (*db)->HoldsFactText("Meets(2, Erin)");
  ASSERT_TRUE(holds.ok()) << holds.status().ToString();
  EXPECT_FALSE(*holds);
  ASSERT_TRUE((*db)->LogAndApplyDeltas("+ Next(Tony, Tony).\n").ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ASSERT_TRUE((*db)->LogAndApplyDeltas("+ Next(Jan, Jan).\n").ok());
  const EngineState before = StateOf(db->get());
  db->reset();

  RecoveryStats rec;
  auto reopened = FunctionalDatabase::OpenDurable(kSource, path, {}, {}, &rec);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(rec.checkpoint_loaded);
  EXPECT_FALSE(rec.used_fallback);
  EXPECT_EQ(rec.replayed_batches, 1u);
  const EngineState after = StateOf(reopened->get());
  EXPECT_EQ(after.fingerprint, before.fingerprint);
  EXPECT_TRUE(after.spec_bytes == before.spec_bytes);
  auto jan = (*reopened)->HoldsFactText("Next(Jan, Jan)");
  ASSERT_TRUE(jan.ok()) << jan.status().ToString();
  EXPECT_TRUE(*jan) << "the batch acknowledged after the checkpoint is lost";
  CleanWalFiles(path);
}

TEST(OpenDurableTest, CheckpointRotatesAndRecoversFromEitherGeneration) {
  std::string path = TestPath("wal");
  CleanWalFiles(path);
  DurableOptions dopts;
  auto db = FunctionalDatabase::OpenDurable(kSource, path, dopts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->LogAndApplyDeltas("+ Meets(0, Jan).\n").ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ASSERT_TRUE((*db)->LogAndApplyDeltas("+ Next(Jan, Jan).\n").ok());
  EngineState before = StateOf(db->get());
  db->reset();

  // The rotation left both generations on disk.
  EXPECT_TRUE(DeltaWal::ReadFile(path + ".ckpt").ok());
  EXPECT_TRUE(DeltaWal::ReadFile(path + ".prev").ok());

  {
    RecoveryStats rec;
    auto reopened =
        FunctionalDatabase::OpenDurable(kSource, path, dopts, {}, &rec);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(rec.checkpoint_loaded);
    EXPECT_FALSE(rec.used_fallback);
    EXPECT_EQ(rec.replayed_batches, 1u);  // only the post-checkpoint batch
    EXPECT_EQ(StateOf(reopened->get()).spec_bytes, before.spec_bytes);
    reopened->reset();
  }

  // Tear the current checkpoint: recovery must fall back one generation
  // (previous log replays from the program base) and still land on the
  // exact same bytes — then rebuild the current generation.
  {
    auto ckpt = DeltaWal::ReadFile(path + ".ckpt");
    ASSERT_TRUE(ckpt.ok());
    std::string torn = ckpt->substr(0, ckpt->size() / 2);
    ASSERT_TRUE(
        DeltaWal::WriteFileDurable(path + ".ckpt", torn, false).ok());
    // The current log anchors to the torn checkpoint, so it cannot replay;
    // the fallback generation carries the pre-checkpoint state, and the
    // post-checkpoint batch is lost with its checkpoint — recovery must
    // still converge on the newest state it can anchor.
    RecoveryStats rec;
    auto reopened =
        FunctionalDatabase::OpenDurable(kSource, path, dopts, {}, &rec);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(rec.used_fallback);

    auto ref = FunctionalDatabase::FromSource(kSource);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE((*ref)->ApplyDeltaText("+ Meets(0, Jan).\n").ok());
    EXPECT_EQ(StateOf(reopened->get()).spec_bytes,
              StateOf(ref->get()).spec_bytes);

    // Fallback recovery rebuilt the current generation: a fresh reopen must
    // use it directly (no fallback) and see the same state.
    reopened->reset();
    RecoveryStats rec2;
    auto again =
        FunctionalDatabase::OpenDurable(kSource, path, dopts, {}, &rec2);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_FALSE(rec2.used_fallback);
    EXPECT_EQ(StateOf(again->get()).spec_bytes,
              StateOf(ref->get()).spec_bytes);
  }
  CleanWalFiles(path);
}

TEST(OpenDurableTest, DivergedProgramIsRefusedNotClobbered) {
  std::string path = TestPath("wal");
  CleanWalFiles(path);
  auto db = FunctionalDatabase::OpenDurable(kSource, path);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LogAndApplyDeltas("+ Meets(0, Jan).\n").ok());
  db->reset();

  auto other = FunctionalDatabase::OpenDurable("P(a).\n", path);
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition);
  // And the log is untouched: the original program still recovers.
  auto original = FunctionalDatabase::OpenDurable(kSource, path);
  EXPECT_TRUE(original.ok()) << original.status().ToString();
  CleanWalFiles(path);
}

TEST(OpenDurableTest, AutoCheckpointEveryN) {
  std::string path = TestPath("wal");
  CleanWalFiles(path);
  DurableOptions dopts;
  dopts.checkpoint_every = 2;
  auto db = FunctionalDatabase::OpenDurable(kSource, path, dopts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LogAndApplyDeltas("+ Meets(0, Jan).\n").ok());
  EXPECT_FALSE(DeltaWal::ReadFile(path + ".ckpt").ok());
  ASSERT_TRUE((*db)->LogAndApplyDeltas("+ Next(Jan, Jan).\n").ok());
  EXPECT_TRUE(DeltaWal::ReadFile(path + ".ckpt").ok());
  // The fresh post-rotation log starts a new chain.
  EXPECT_EQ((*db)->wal()->next_seq(), 1u);
  CleanWalFiles(path);
}

TEST(OpenDurableTest, DeltaValidationErrorLeavesEngineAndLogUntouched) {
  std::string path = TestPath("wal");
  CleanWalFiles(path);
  auto db = FunctionalDatabase::OpenDurable(kSource, path);
  ASSERT_TRUE(db.ok());
  EngineState before = StateOf(db->get());
  // Line 2 is garbage: the whole batch must be rejected with the engine
  // untouched (strong guarantee) and nothing appended to the log.
  auto stats = (*db)->LogAndApplyDeltas("+ Meets(0, Jan).\nnot a delta\n");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(StateOf(db->get()).spec_bytes, before.spec_bytes);
  EXPECT_EQ((*db)->wal()->next_seq(), 1u);
  CleanWalFiles(path);
}

// ---------------------------------------------------------------------------
// Version 1 snapshots in durable state
// ---------------------------------------------------------------------------

// tests/golden/v1/durable holds a durable directory written when snapshots
// were at version 1: kV1Source opened with OpenDurable, kV1Batches logged
// with a Checkpoint after the second and the fourth batch. So it has both
// checkpoint generations and both logs, and its checkpoints embed version 1
// snapshots.
constexpr char kV1Source[] =
    "Meets(0, Tony).\n"
    "Next(Tony, Jan).\n"
    "Next(Jan, Kim).\n"
    "Next(Kim, Tony).\n"
    "Meets(t, x), Next(x, y) -> Meets(t+1, y).\n";
const char* const kV1Batches[] = {
    "+ Meets(1, Kim).\n",
    "- Next(Kim, Tony).\n+ Next(Kim, Jan).\n",
    "+ Meets(3, Ann).\n",
    "+ Next(Ann, Tony).\n",
    "+ Meets(2, Tony).\n",
    "- Meets(1, Kim).\n+ Next(Tony, Ann).\n",
};
// The engine fingerprint the fixture's writer reported after the last batch.
constexpr uint64_t kV1Fingerprint = 0x3d3146334dc6d112ull;

std::string SourceFile(const std::string& relative) {
  auto bytes =
      DeltaWal::ReadFile(std::string(RELSPEC_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(bytes.ok()) << relative << ": " << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

uint32_t SnapshotVersion(const std::string& snapshot) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(snapshot.at(4 + i)))
         << (8 * i);
  }
  return v;
}

TEST(OpenDurableTest, RecoversVersionOneDurableDirectory) {
  const std::string path = TestPath("wal");
  CleanWalFiles(path);
  const std::string fixture = "tests/golden/v1/durable/state.wal";
  for (const char* suffix : {"", ".prev", ".ckpt", ".ckpt.prev"}) {
    ASSERT_TRUE(DeltaWal::WriteFileDurable(
                    path + suffix, SourceFile(fixture + suffix), false)
                    .ok());
  }
  auto ckpt = DeltaWal::ReadFile(path + ".ckpt");
  ASSERT_TRUE(ckpt.ok());
  auto data = ParseCheckpoint(*ckpt);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_EQ(SnapshotVersion(data->snapshot_bytes), 1u);

  RecoveryStats rec;
  auto db = FunctionalDatabase::OpenDurable(kV1Source, path, {}, {}, &rec);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(rec.checkpoint_loaded);
  EXPECT_FALSE(rec.used_fallback);
  EXPECT_EQ(rec.replayed_batches, 2u);  // the batches after the checkpoint
  EXPECT_EQ((*db)->Fingerprint(), kV1Fingerprint);

  auto fresh = FunctionalDatabase::FromSource(kV1Source);
  ASSERT_TRUE(fresh.ok());
  for (const char* batch : kV1Batches) {
    ASSERT_TRUE((*fresh)->ApplyDeltaText(batch).ok()) << batch;
  }
  EXPECT_EQ((*fresh)->Fingerprint(), kV1Fingerprint);
  EXPECT_EQ(StateOf(db->get()).spec_bytes, StateOf(fresh->get()).spec_bytes);
  for (int n = 0; n <= 12; ++n) {
    for (const char* c : {"Tony", "Jan", "Kim", "Ann"}) {
      const std::string fact =
          "Meets(" + std::to_string(n) + ", " + std::string(c) + ")";
      auto got = (*db)->HoldsFactText(fact);
      auto want = (*fresh)->HoldsFactText(fact);
      ASSERT_TRUE(got.ok() && want.ok()) << fact;
      EXPECT_EQ(*got, *want) << fact;
    }
  }
  db->reset();
  CleanWalFiles(path);
}

// The checkpoint seed of the fuzz corpus embeds a version 1 snapshot; it
// still parses, and its snapshot still loads.
TEST(CheckpointFormatTest, CorpusCheckpointWithVersionOneSnapshotLoads) {
  auto data =
      ParseCheckpoint(SourceFile("tests/fuzz_corpus/wal/checkpoint.rckp"));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_EQ(SnapshotVersion(data->snapshot_bytes), 1u);
  auto spec = Snapshot::ParseGraphSpec(data->snapshot_bytes);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_GT(spec->num_clusters(), 0u);
  auto upgraded = Snapshot::Upgrade(data->snapshot_bytes);
  ASSERT_TRUE(upgraded.ok());
  EXPECT_EQ(*upgraded, Snapshot::Serialize(*spec));
  EXPECT_EQ(SnapshotVersion(*upgraded), Snapshot::kVersion);
}

}  // namespace
}  // namespace relspec
