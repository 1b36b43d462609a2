// Crash-recovery matrix: kill -9 a child engine at every WAL failpoint site
// (write, fsync, and every checkpoint-rotation rename boundary), then recover
// in the parent and require byte-identity with a never-crashed reference.
//
// Protocol per (site, seed):
//   1. Precompute reference states ref[0..N]: spec text, snapshot bytes, and
//      fingerprint after each prefix of N randomized delta batches, applied
//      to a plain in-memory engine.
//   2. Fork. The child arms `site=abortK` (SIGKILL on the Kth hit), opens the
//      database durably with fsync=always and auto-checkpointing, and applies
//      the batches via LogAndApplyDeltas, writing one ack byte down a pipe
//      after each acknowledged batch. The pipe survives the SIGKILL.
//   3. The parent counts acks, reaps the child, and recovers with a plain
//      OpenDurable. The recovered state must equal ref[j] — all three of
//      spec text, snapshot bytes, fingerprint — for some prefix j, and
//      because every ack was issued under fsync=always, j >= acks (no
//      acknowledged batch may be lost).
//   4. The parent then applies the remaining batches to the recovered engine
//      and must converge on ref[N] exactly; a final reopen replays the log
//      once more and must land on ref[N] again.
//
// A seeded model-based test interleaves the same harness with reads naming
// fresh symbols, updates, checkpoints and reopens; after every reopen the
// engine must equal a rebuild of the program plus the acknowledged batches.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/failpoint.h"
#include "src/base/trace.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/core/spec_io.h"
#include "src/core/wal.h"
#include "src/parser/parser.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "tests/random_program.h"

namespace relspec {
namespace {

using testutil::RandomProgramRich;

// One fully rendered engine state; equality means byte-identity.
struct RefState {
  std::string spec_text;
  std::string snapshot_bytes;
  uint64_t fingerprint = 0;

  bool operator==(const RefState& o) const {
    return fingerprint == o.fingerprint && snapshot_bytes == o.snapshot_bytes &&
           spec_text == o.spec_text;
  }
};

RefState Render(FunctionalDatabase* db) {
  RefState s;
  auto spec = db->BuildGraphSpec();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  if (spec.ok()) {
    s.spec_text = SpecIo::Serialize(*spec);
    s.snapshot_bytes = Snapshot::Serialize(*spec);
  }
  s.fingerprint = db->Fingerprint();
  return s;
}

// The same randomized source + batch sequence the incremental differential
// test uses (tests/differential_test.cc): mixed inserts/deletes over the
// generator's guaranteed P0/R signature, plus one new-constant batch that
// forces the full-rebuild path.
std::string MakeSource(unsigned seed) {
  std::mt19937 rng(seed * 25173u + 13u);
  return RandomProgramRich(&rng);
}

std::vector<std::string> MakeBatches(unsigned seed) {
  std::mt19937 rng(seed * 69069u + 17u);
  std::vector<std::string> pool;
  for (const char* t : {"0", "f(0)", "f(f(0))"}) {
    pool.push_back(std::string("P0(") + t + ", a)");
    pool.push_back(std::string("P0(") + t + ", b)");
  }
  pool.push_back("R(a)");
  pool.push_back("R(b)");

  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<std::string> batches;
  for (int b = 0; b < 4; ++b) {
    std::string text;
    int edits = 1 + static_cast<int>(pick(3));
    for (int e = 0; e < edits; ++e) {
      bool insert = pick(4) >= static_cast<size_t>(b);
      text += std::string(insert ? "+ " : "- ") + pool[pick(pool.size())] +
              ".\n";
    }
    batches.push_back(text);
  }
  batches.push_back("+ P0(f(0), c).\n");
  return batches;
}

DurableOptions DurableEveryTwo() {
  DurableOptions dopts;
  dopts.checkpoint_every = 2;  // exercise rotation mid-run
  return dopts;
}

void CleanWalFiles(const std::string& wal_path) {
  for (const char* suffix :
       {"", ".prev", ".tmp", ".ckpt", ".ckpt.prev", ".ckpt.tmp"}) {
    std::remove((wal_path + suffix).c_str());
  }
}

// Child body (between fork and SIGKILL/_exit): apply every batch durably,
// acking each success down `ack_fd`. Exit codes distinguish unexpected
// failures from the expected kill.
int ChildWorkload(const std::string& failpoint_spec, const std::string& source,
                  const std::vector<std::string>& batches,
                  const std::string& wal_path, int ack_fd) {
  if (!failpoint::Configure(failpoint_spec).ok()) return 40;
  auto db =
      FunctionalDatabase::OpenDurable(source, wal_path, DurableEveryTwo());
  if (!db.ok()) return 41;
  for (size_t i = 0; i < batches.size(); ++i) {
    auto stats = (*db)->LogAndApplyDeltas(batches[i]);
    if (!stats.ok()) return 42;
    char ack = static_cast<char>('0' + i);
    if (::write(ack_fd, &ack, 1) != 1) return 43;
  }
  return 0;
}

// Forks the child workload and returns the number of acked batches. The
// child either dies by SIGKILL at the armed site or exits 0 (the site was
// never hit K times — a clean run, which recovery must handle too).
int RunCrashingChild(const std::string& failpoint_spec,
                     const std::string& source,
                     const std::vector<std::string>& batches,
                     const std::string& wal_path) {
  int pipe_fds[2];
  EXPECT_EQ(::pipe(pipe_fds), 0);
  pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipe_fds[0]);
    int code = ChildWorkload(failpoint_spec, source, batches, wal_path,
                             pipe_fds[1]);
    ::_exit(code);  // no destructors: a crashed process runs none either
  }
  ::close(pipe_fds[1]);
  int acked = 0;
  char buf[16];
  ssize_t n;
  while ((n = ::read(pipe_fds[0], buf, sizeof buf)) > 0) {
    acked += static_cast<int>(n);
  }
  ::close(pipe_fds[0]);
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  if (WIFSIGNALED(wstatus)) {
    EXPECT_EQ(WTERMSIG(wstatus), SIGKILL) << failpoint_spec;
  } else {
    EXPECT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0)
        << failpoint_spec << ": child failed before the site fired";
  }
  return acked;
}

// Recovers, locates the recovered state among the reference prefixes,
// enforces acked-durability, converges on ref[N], and reopens once more.
void RecoverAndVerify(const std::string& source,
                      const std::vector<std::string>& batches,
                      const std::vector<RefState>& ref,
                      const std::string& wal_path, int acked) {
  RecoveryStats rec;
  auto db = FunctionalDatabase::OpenDurable(source, wal_path, DurableEveryTwo(),
                                            EngineOptions(), &rec);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  RefState got = Render(db->get());

  int match = -1;
  for (int j = static_cast<int>(ref.size()) - 1; j >= 0; --j) {
    if (ref[static_cast<size_t>(j)] == got) {
      match = j;
      break;
    }
  }
  ASSERT_GE(match, 0) << "recovered state matches no never-crashed prefix "
                      << "(replayed " << rec.replayed_batches << " batches)";
  // fsync=always acked-durability: an acknowledged batch is never lost.
  EXPECT_GE(match, acked) << "recovery lost an acknowledged batch";

  // Converge: the remaining batches must land exactly on ref[N].
  for (size_t i = static_cast<size_t>(match); i < batches.size(); ++i) {
    auto stats = (*db)->LogAndApplyDeltas(batches[i]);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  EXPECT_TRUE(Render(db->get()) == ref.back());
  db->reset();

  // And a final reopen replays whatever the convergence run logged.
  auto reopened = FunctionalDatabase::OpenDurable(
      source, wal_path, DurableEveryTwo());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  RefState re = Render(reopened->get());
  EXPECT_EQ(re.spec_text, ref.back().spec_text);
  EXPECT_TRUE(re.snapshot_bytes == ref.back().snapshot_bytes);
  EXPECT_EQ(re.fingerprint, ref.back().fingerprint);
}

class CrashRecoveryTest : public ::testing::TestWithParam<int> {};
// Spot checks that run on the first five seeds only.
class CrashRecoverySpotCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashRecoveryTest, KillAtEveryWalSiteRecoversByteIdentical) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  const std::string source = MakeSource(seed);
  const std::vector<std::string> batches = MakeBatches(seed);
  SCOPED_TRACE(source);

  // Reference prefixes on a plain engine (ApplyDeltaText is the same code
  // recovery replays through).
  std::vector<RefState> ref;
  {
    auto db = FunctionalDatabase::FromSource(source);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ref.push_back(Render(db->get()));
    for (const std::string& batch : batches) {
      auto stats = (*db)->ApplyDeltaText(batch);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ref.push_back(Render(db->get()));
    }
  }

  // Every site, with the kill moved across hit positions by the seed so the
  // matrix covers first/middle/late hits of multi-hit sites.
  struct SiteCase {
    const char* site;
    int hit_spread;  // kill on hit 1 + seed % hit_spread
  };
  const SiteCase kSites[] = {
      {"wal.create.write", 1},
      {"wal.create.synced", 1},
      {"wal.append.write", 3},
      {"wal.append.written", 3},
      {"wal.append.acked", 3},
      {"wal.fsync", 3},
      {"wal.checkpoint.write_ckpt", 2},
      {"wal.checkpoint.write_newlog", 2},
      {"wal.checkpoint.rename_ckpt_prev", 2},
      {"wal.checkpoint.rename_wal_prev", 2},
      {"wal.checkpoint.rename_ckpt", 2},
      {"wal.checkpoint.rename_wal", 2},
      {"wal.checkpoint.done", 2},
  };

  const std::string wal_path = ::testing::TempDir() + "crash_seed" +
                               std::to_string(seed) + ".wal";
  for (const SiteCase& sc : kSites) {
    const int kill_hit = 1 + static_cast<int>(seed) % sc.hit_spread;
    const std::string spec =
        std::string(sc.site) + "=abort" + std::to_string(kill_hit);
    SCOPED_TRACE(spec);
    CleanWalFiles(wal_path);
    int acked = RunCrashingChild(spec, source, batches, wal_path);
    RecoverAndVerify(source, batches, ref, wal_path, acked);
  }
  CleanWalFiles(wal_path);
}

// The torn-tail truncation boundary: a crash *during a previous recovery's*
// ftruncate of garbage tail bytes must itself be recoverable.
TEST_P(CrashRecoveryTest, KillDuringTornTailTruncationRecovers) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  const std::string source = MakeSource(seed);
  const std::vector<std::string> batches = MakeBatches(seed);
  const std::string wal_path = ::testing::TempDir() + "crash_trunc_seed" +
                               std::to_string(seed) + ".wal";
  CleanWalFiles(wal_path);

  std::vector<RefState> ref;
  {
    auto db = FunctionalDatabase::FromSource(source);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ref.push_back(Render(db->get()));
    for (const std::string& batch : batches) {
      auto stats = (*db)->ApplyDeltaText(batch);
      ASSERT_TRUE(stats.ok());
      ref.push_back(Render(db->get()));
    }
  }

  // Build a durable run, then tear the log tail by hand (the moral
  // equivalent of a kill mid-write(2), which a failpoint cannot produce
  // because the record write is a single syscall).
  {
    auto db = FunctionalDatabase::OpenDurable(source, wal_path,
                                              DurableEveryTwo());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const std::string& batch : batches) {
      ASSERT_TRUE((*db)->LogAndApplyDeltas(batch).ok());
    }
  }
  auto bytes = DeltaWal::ReadFile(wal_path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(DeltaWal::WriteFileDurable(
                  wal_path, *bytes + "\x09\x00\x00\x00torn", false)
                  .ok());

  // A child recovering this log dies exactly at the truncate site...
  int acked = RunCrashingChild("wal.recover.truncate=abort", source, {},
                               wal_path);
  EXPECT_EQ(acked, 0);
  // ...and the parent's recovery still lands on the full reference state.
  RecoveryStats rec;
  auto db = FunctionalDatabase::OpenDurable(source, wal_path, DurableEveryTwo(),
                                            EngineOptions(), &rec);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(Render(db->get()) == ref.back());
  CleanWalFiles(wal_path);
}

// Under fsync=batch an unsynced acknowledged batch MAY be lost, but recovery
// must still land on some exact prefix — never a torn or reordered state.
TEST_P(CrashRecoverySpotCheckTest, BatchFsyncCrashRecoversToExactPrefix) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  const std::string source = MakeSource(seed);
  const std::vector<std::string> batches = MakeBatches(seed);
  const std::string wal_path = ::testing::TempDir() + "crash_batch_seed" +
                               std::to_string(seed) + ".wal";
  CleanWalFiles(wal_path);

  std::vector<RefState> ref;
  {
    auto db = FunctionalDatabase::FromSource(source);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ref.push_back(Render(db->get()));
    for (const std::string& batch : batches) {
      ASSERT_TRUE((*db)->ApplyDeltaText(batch).ok());
      ref.push_back(Render(db->get()));
    }
  }

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipe_fds[0]);
    if (!failpoint::Configure("wal.append.acked=abort3").ok()) ::_exit(40);
    DurableOptions dopts;
    dopts.wal.fsync = FsyncMode::kBatch;
    dopts.wal.batch_every = 2;
    auto db = FunctionalDatabase::OpenDurable(source, wal_path, dopts);
    if (!db.ok()) ::_exit(41);
    for (const std::string& batch : batches) {
      if (!(*db)->LogAndApplyDeltas(batch).ok()) ::_exit(42);
      char ack = '.';
      if (::write(pipe_fds[1], &ack, 1) != 1) ::_exit(43);
    }
    ::_exit(0);
  }
  ::close(pipe_fds[1]);
  char buf[16];
  while (::read(pipe_fds[0], buf, sizeof buf) > 0) {
  }
  ::close(pipe_fds[0]);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);

  DurableOptions dopts;
  dopts.wal.fsync = FsyncMode::kBatch;
  dopts.wal.batch_every = 2;
  auto db = FunctionalDatabase::OpenDurable(source, wal_path, dopts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  RefState got = Render(db->get());
  bool is_prefix = false;
  for (const RefState& r : ref) is_prefix = is_prefix || r == got;
  EXPECT_TRUE(is_prefix) << "recovered state is not an exact prefix";
  CleanWalFiles(wal_path);
}

// ---------------------------------------------------------------------------
// Model-based interleavings. Each seed draws a run of steps against one
// durable engine: queries and membership probes naming fresh symbols,
// updates over existing or new constants, checkpoints, drop-and-reopen, and
// a child killed at a WAL site mid-update. The model is the list of
// acknowledged batches; after every reopen the engine must equal
// FromSource(program) plus those batches, snapshot bytes and fingerprint.

constexpr char kInterleavingSource[] = R"(
  Meets(0, Tony).
  Next(Tony, Jan).  Next(Jan, Tony).
  Meets(t, x), Next(x, y) -> Meets(t+1, y).
)";

RefState ModelState(const std::vector<std::string>& acked) {
  auto db = FunctionalDatabase::FromSource(kInterleavingSource);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return RefState();
  for (const std::string& batch : acked) {
    auto stats = (*db)->ApplyDeltaText(batch);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  }
  return Render(db->get());
}

class InterleavingTest : public ::testing::TestWithParam<int> {};

TEST_P(InterleavingTest, FreshNameReadsUpdatesCheckpointsAndKillsKeepAcks) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  std::mt19937 rng(seed * 40503u + 7u);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::string wal_path = ::testing::TempDir() + "interleave_seed" +
                               std::to_string(seed) + ".wal";
  CleanWalFiles(wal_path);
  const char* kExisting[] = {"Meets(0, Tony)", "Meets(0, Jan)",
                             "Meets(1, Jan)",  "Next(Tony, Jan)",
                             "Next(Jan, Tony)", "Next(Tony, Tony)",
                             "Next(Jan, Jan)"};
  const char* kSites[] = {
      "wal.append.write",          "wal.append.acked",
      "wal.fsync",                 "wal.checkpoint.write_ckpt",
      "wal.checkpoint.rename_ckpt_prev", "wal.checkpoint.rename_wal",
      "wal.checkpoint.done",
  };
  int fresh = 0;
  auto make_batch = [&] {
    std::string text;
    for (size_t e = 0, n = 1 + pick(2); e < n; ++e) {
      const std::string fact =
          pick(5) == 0 ? "Next(Jan, New" + std::to_string(fresh++) + ")"
                       : kExisting[pick(std::size(kExisting))];
      text += (pick(3) == 0 ? "- " : "+ ") + fact + ".\n";
    }
    return text;
  };

  std::vector<std::string> acked;
  std::unique_ptr<FunctionalDatabase> db;
  auto open = [&](const char* why) {
    RecoveryStats rec;
    auto opened = FunctionalDatabase::OpenDurable(
        kInterleavingSource, wal_path, DurableEveryTwo(), EngineOptions(),
        &rec);
    ASSERT_TRUE(opened.ok()) << why << ": " << opened.status().ToString();
    db = std::move(opened).value();
    const RefState got = Render(db.get());
    const RefState want = ModelState(acked);
    EXPECT_EQ(got.fingerprint, want.fingerprint)
        << why << " lost or invented a batch: " << acked.size()
        << " acked, replayed " << rec.replayed_batches
        << (rec.used_fallback ? " after falling back" : "");
    EXPECT_TRUE(got.snapshot_bytes == want.snapshot_bytes) << why;
  };
  open("first open");

  for (int step = 0; step < 40 && !HasFailure(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::string n = std::to_string(fresh++);
    switch (pick(10)) {
      case 0:
      case 1:
      case 2: {  // a query naming a fresh variable and constant
        auto q = ParseQuery("?(v" + n + ") Meets(v" + n + ", Q" + n + ").",
                            db->program().symbols);
        ASSERT_TRUE(q.ok()) << q.status().ToString();
        auto answer = AnswerQuery(db.get(), *q);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        EXPECT_TRUE(answer->IsEmpty());
        break;
      }
      case 3:
      case 4: {  // membership naming a fresh constant
        auto holds = db->HoldsFactText("Meets(" + std::to_string(pick(6)) +
                                       ", H" + n + ")");
        ASSERT_TRUE(holds.ok()) << holds.status().ToString();
        EXPECT_FALSE(*holds);
        break;
      }
      case 5:
      case 6: {
        const std::string batch = make_batch();
        auto stats = db->LogAndApplyDeltas(batch);
        ASSERT_TRUE(stats.ok()) << batch << stats.status().ToString();
        acked.push_back(batch);
        break;
      }
      case 7:
        ASSERT_TRUE(db->Checkpoint().ok());
        break;
      case 8:
        db.reset();
        open("reopen");
        break;
      case 9: {  // a child killed at a WAL site during two updates
        db.reset();
        const std::vector<std::string> batches = {make_batch(), make_batch()};
        const std::string spec =
            std::string(kSites[pick(std::size(kSites))]) + "=abort1";
        SCOPED_TRACE(spec);
        const int child_acks =
            RunCrashingChild(spec, kInterleavingSource, batches, wal_path);
        // Recovery lands at or past the child's acks; find where.
        RecoveryStats rec;
        auto opened = FunctionalDatabase::OpenDurable(
            kInterleavingSource, wal_path, DurableEveryTwo(), EngineOptions(),
            &rec);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        const RefState got = Render(opened->get());
        int landed = -1;
        std::vector<std::string> model = acked;
        for (int k = 0; k <= 2 && landed < 0; ++k) {
          if (k > 0) model.push_back(batches[static_cast<size_t>(k - 1)]);
          if (k >= child_acks && ModelState(model) == got) landed = k;
        }
        ASSERT_GE(landed, 0) << "recovery after the kill lost an acked batch";
        acked.insert(acked.end(), batches.begin(), batches.begin() + landed);
        db = std::move(opened).value();
        break;
      }
    }
  }
  db.reset();
  if (!HasFailure()) open("final reopen");
  db.reset();
  CleanWalFiles(wal_path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterleavingTest, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Daemon chaos: the same kill matrix, but the updates arrive over the RSRV
// socket and the acks are the daemon's update *replies* (durable=true under
// fsync=always). A SIGKILLed daemon must preserve every replied-to update.

// Child body: serve a durable engine on a unix socket, inline execution
// (threads=1: no threads in the forked child), ready byte once listening.
int DaemonChildWorkload(const std::string& failpoint_spec,
                        const std::string& source, const std::string& wal_path,
                        const std::string& socket_path, int ready_fd) {
  if (!failpoint::Configure(failpoint_spec).ok()) return 40;
  auto db =
      FunctionalDatabase::OpenDurable(source, wal_path, DurableEveryTwo());
  if (!db.ok()) return 41;
  serve::ServerOptions options;
  options.unix_path = socket_path;
  options.threads = 1;
  auto server = serve::Server::Create(std::move(db).value(), options);
  if (!server.ok()) return 42;
  char ready = '!';
  if (::write(ready_fd, &ready, 1) != 1) return 43;
  ::close(ready_fd);
  return (*server)->Serve().ok() ? 0 : 44;
}

// Forks the serving child, pushes every batch through a ServeClient, and
// returns how many got an OK durable reply before the armed site killed the
// daemon (or, if the site never fired, before the parent's own SIGKILL — a
// daemon crash is a crash either way, there is no drain).
int RunCrashingDaemon(const std::string& failpoint_spec,
                      const std::string& source,
                      const std::vector<std::string>& batches,
                      const std::string& wal_path,
                      const std::string& socket_path) {
  int ready_fds[2];
  EXPECT_EQ(::pipe(ready_fds), 0);
  pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::close(ready_fds[0]);
    ::_exit(DaemonChildWorkload(failpoint_spec, source, wal_path, socket_path,
                                ready_fds[1]));
  }
  ::close(ready_fds[1]);
  char ready = 0;
  ssize_t got = ::read(ready_fds[0], &ready, 1);
  ::close(ready_fds[0]);
  EXPECT_EQ(got, 1) << failpoint_spec << ": daemon died before listening";
  int acked = 0;
  if (got == 1) {
    auto client = serve::ServeClient::Connect(socket_path);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    if (client.ok()) {
      for (const std::string& batch : batches) {
        auto result = (*client)->Update(batch);
        if (!result.ok()) break;  // the armed site fired mid-request
        EXPECT_TRUE(result->durable) << failpoint_spec;
        ++acked;
      }
    }
  }
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL)
      << failpoint_spec;
  return acked;
}

TEST_P(CrashRecoveryTest, DaemonKillAtWalSitesPreservesAckedUpdates) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  const std::string source = MakeSource(seed);
  const std::vector<std::string> batches = MakeBatches(seed);
  SCOPED_TRACE(source);

  std::vector<RefState> ref;
  {
    auto db = FunctionalDatabase::FromSource(source);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ref.push_back(Render(db->get()));
    for (const std::string& batch : batches) {
      auto stats = (*db)->ApplyDeltaText(batch);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ref.push_back(Render(db->get()));
    }
  }

  // A representative slice of the WAL matrix (the full sweep above already
  // covers every site in-process; here the point is the socket ack path).
  struct SiteCase {
    const char* site;
    int hit_spread;
  };
  const SiteCase kSites[] = {
      {"wal.append.write", 3},
      {"wal.append.acked", 3},
      {"wal.fsync", 3},
      {"wal.checkpoint.rename_wal", 2},
  };

  const std::string wal_path = ::testing::TempDir() + "daemon_crash_seed" +
                               std::to_string(seed) + ".wal";
  const std::string socket_path = ::testing::TempDir() + "daemon_crash_seed" +
                                  std::to_string(seed) + ".sock";
  for (const SiteCase& sc : kSites) {
    const int kill_hit = 1 + static_cast<int>(seed) % sc.hit_spread;
    const std::string spec =
        std::string(sc.site) + "=abort" + std::to_string(kill_hit);
    SCOPED_TRACE(spec);
    CleanWalFiles(wal_path);
    std::remove(socket_path.c_str());
    int acked =
        RunCrashingDaemon(spec, source, batches, wal_path, socket_path);
    RecoverAndVerify(source, batches, ref, wal_path, acked);
  }
  CleanWalFiles(wal_path);
  std::remove(socket_path.c_str());
}

// Graceful shutdown is the opposite contract: RequestShutdown (exactly what
// relspecd's SIGTERM handler calls) must reply to the request already on the
// wire, flush a contract-valid trace, and leave the WAL replayable.
TEST_P(CrashRecoverySpotCheckTest,
       DaemonShutdownDrainsInFlightRepliesAndTrace) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  const std::string source = MakeSource(seed);
  const std::vector<std::string> batches = MakeBatches(seed);
  const std::string wal_path = ::testing::TempDir() + "daemon_drain_seed" +
                               std::to_string(seed) + ".wal";
  const std::string socket_path = ::testing::TempDir() + "daemon_drain_seed" +
                                  std::to_string(seed) + ".sock";
  CleanWalFiles(wal_path);
  std::remove(socket_path.c_str());

  EnableEventTrace(true);
  Tracer::Global().Reset();
  uint64_t fp_after_updates = 0;
  {
    auto db = FunctionalDatabase::OpenDurable(source, wal_path,
                                              DurableEveryTwo());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    serve::ServerOptions options;
    options.unix_path = socket_path;
    options.threads = 2;
    auto server = serve::Server::Create(std::move(db).value(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Status served = Status::Internal("never served");
    std::thread serving([&] { served = (*server)->Serve(); });

    auto client = serve::ServeClient::Connect(socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (const std::string& batch : batches) {
      auto result = (*client)->Update(batch);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->durable);
      fp_after_updates = result->fingerprint;
    }

    // Put a ping on the wire, then shut down before reading the reply. The
    // drain's final read pass must harvest the frame and answer it.
    serve::RequestHeader ping;
    ping.type = serve::RequestType::kPing;
    ping.request_id = 777;
    ASSERT_TRUE((*client)->SendRaw(serve::EncodeRequest(ping, "")).ok());
    (*server)->RequestShutdown();
    auto reply = (*client)->ReadReply();
    ASSERT_TRUE(reply.ok()) << "drain dropped an in-flight request: "
                            << reply.status().ToString();
    EXPECT_EQ(reply->request_id, 777u);
    EXPECT_TRUE(reply->ok());

    serving.join();
    EXPECT_TRUE(served.ok()) << served.ToString();
  }
  EnableEventTrace(false);
  TraceSummary exported;
  std::string json = Tracer::Global().ExportChromeJson(&exported);
  auto summary = ValidateChromeTraceJson(json);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(summary->begins + summary->instants, 0u)
      << "the serving run recorded no trace events";

  // The drained WAL replays to the exact acked state.
  auto reopened = FunctionalDatabase::OpenDurable(
      source, wal_path, DurableEveryTwo());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Fingerprint(), fp_after_updates);
  CleanWalFiles(wal_path);
  std::remove(socket_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryTest, ::testing::Range(0, 15));
INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoverySpotCheckTest,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace relspec
