// E22 — durability (docs/DURABILITY.md): what the write-ahead log costs on
// the update path, and what recovery costs on the open path.
//
// Expected shape: fsync=off appends are memcpy + write() and run in the
// microsecond range; fsync=always is bounded below by device sync latency
// and dominates the durable update; fsync=batch amortizes one sync across
// the window. Scan/replay throughput is linear in log bytes. Checkpoint
// cost is a full snapshot serialization plus two renames, independent of
// log length — which is exactly why rotation keeps recovery O(tail), not
// O(history).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/core/wal.h"

namespace {

using namespace relspec;
using namespace relspec_bench;

constexpr char kWalPath[] = "bench_wal.tmp.rwal";

// A small convergent program with an inert two-fact predicate to toggle:
// its rebuild is cheap, so the WAL append/fsync cost is the dominant term
// being measured.
constexpr char kProgram[] =
    "Meets(0, tony).\n"
    "Next(tony, jan).\n"
    "Next(jan, tony).\n"
    "Q(1, tony).\n"
    "Q(2, tony).\n"
    "Meets(t, x), Next(x, y) -> Meets(f(t), y).\n";

void RemoveWalFiles() {
  const char* suffixes[] = {"",      ".prev",      ".tmp",
                            ".ckpt", ".ckpt.prev", ".ckpt.tmp"};
  for (const char* suffix : suffixes) {
    std::remove((std::string(kWalPath) + suffix).c_str());
  }
}

WalOptions ModeFromRange(int64_t r, int64_t batch_every) {
  WalOptions w;
  w.fsync = r == 0 ? FsyncMode::kOff
                   : (r == 1 ? FsyncMode::kBatch : FsyncMode::kAlways);
  w.batch_every = static_cast<uint64_t>(batch_every);
  return w;
}

// Raw append throughput per fsync policy. Arg: 0=off, 1=batch(32), 2=always.
void BM_Wal_Append(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  RemoveWalFiles();
  auto wal = DeltaWal::Create(kWalPath, /*base_fingerprint=*/1,
                              ModeFromRange(state.range(0), 32));
  if (!wal.ok()) {
    state.SkipWithError(wal.status().ToString().c_str());
    return;
  }
  const std::string payload = "+ Q(1, tony).\n";
  uint64_t fp = 1;
  for (auto _ : state) {
    Status st = (*wal)->Append(++fp, payload);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(payload.size() + DeltaWal::kRecordHeaderSize));
  Status st = (*wal)->Close();
  benchmark::DoNotOptimize(st);
  RemoveWalFiles();
}
BENCHMARK(BM_Wal_Append)->Arg(0)->Arg(1)->Arg(2);

// Scan (validate + decode) throughput over an in-memory log of N records —
// the CPU half of recovery, without replay or disk.
void BM_Wal_ScanBytes(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  const int n = static_cast<int>(state.range(0));
  std::string log = DeltaWal::SerializeHeader(1);
  for (int i = 0; i < n; ++i) {
    log += DeltaWal::SerializeRecord(static_cast<uint64_t>(i + 1),
                                     static_cast<uint64_t>(i + 2),
                                     "+ Q(1, tony).\n");
  }
  for (auto _ : state) {
    auto scan = DeltaWal::ScanBytes(log);
    if (!scan.ok() || scan->records.size() != static_cast<size_t>(n)) {
      state.SkipWithError("scan failed");
      return;
    }
    benchmark::DoNotOptimize(scan);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log.size()));
  state.counters["records"] = static_cast<double>(n);
}
BENCHMARK(BM_Wal_ScanBytes)->Arg(64)->Arg(512)->Arg(4096);

// One durable update through LogAndApplyDeltas: in-memory apply + append +
// policy fsync. Compare against bench_delta's BM_Delta_Apply for the pure
// in-memory cost. Arg: 0=off, 1=batch(8), 2=always.
void BM_Wal_DurableUpdate(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  RemoveWalFiles();
  DurableOptions durable;
  durable.wal = ModeFromRange(state.range(0), 8);
  auto db = FunctionalDatabase::OpenDurable(kProgram, kWalPath, durable);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  bool present = true;
  for (auto _ : state) {
    auto stats = (*db)->LogAndApplyDeltas(present ? "- Q(1, tony).\n"
                                                  : "+ Q(1, tony).\n");
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    present = !present;
    benchmark::DoNotOptimize(stats);
  }
  db->reset();
  RemoveWalFiles();
}
BENCHMARK(BM_Wal_DurableUpdate)->Arg(0)->Arg(1)->Arg(2);

// Checkpoint + log rotation: snapshot serialization, two durable .tmp
// writes, four renames. Constant in log length by design.
void BM_Wal_Checkpoint(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  RemoveWalFiles();
  auto db = FunctionalDatabase::OpenDurable(kProgram, kWalPath);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Status st = (*db)->Checkpoint();
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  db->reset();
  RemoveWalFiles();
}
BENCHMARK(BM_Wal_Checkpoint);

// Full recovery: open a log with N surviving batches and replay them
// through ApplyDeltaText. Linear in N — the cost rotation bounds.
void BM_Wal_Recover(benchmark::State& state) {
  ScopedBenchMetrics bench_metrics(__func__);
  const int n = static_cast<int>(state.range(0));
  RemoveWalFiles();
  {
    auto db = FunctionalDatabase::OpenDurable(kProgram, kWalPath);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    bool present = true;
    for (int i = 0; i < n; ++i) {
      auto stats = (*db)->LogAndApplyDeltas(present ? "- Q(1, tony).\n"
                                                    : "+ Q(1, tony).\n");
      if (!stats.ok()) {
        state.SkipWithError(stats.status().ToString().c_str());
        return;
      }
      present = !present;
    }
  }
  for (auto _ : state) {
    RecoveryStats rec;
    auto db = FunctionalDatabase::OpenDurable(kProgram, kWalPath,
                                              DurableOptions(),
                                              EngineOptions(), &rec);
    if (!db.ok() || rec.replayed_batches != static_cast<uint64_t>(n)) {
      state.SkipWithError("recovery failed or replayed wrong batch count");
      return;
    }
    benchmark::DoNotOptimize(db);
  }
  state.counters["replayed"] = static_cast<double>(n);
  RemoveWalFiles();
}
BENCHMARK(BM_Wal_Recover)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
