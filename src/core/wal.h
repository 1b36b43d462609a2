// DeltaWal: an append-only, checksummed write-ahead log of delta batches.
//
// The WAL makes ApplyDeltas durable: every acknowledged batch is re-playable
// after a crash, and recovery replays surviving batches through the *same*
// ApplyDeltaText code that applied them live, so a recovered engine is
// byte-identical to one that never crashed (docs/DURABILITY.md).
//
// File layout ("RWAL", little-endian throughout, same checksum style as the
// RSNP snapshot format in src/core/snapshot.cc):
//
//   header:  "RWAL" | u32 version | u64 base_fingerprint | u64 checksum
//            (checksum covers version + base_fingerprint)
//   record:  u32 payload_len | u64 checksum | u64 seq | u64 fingerprint
//            | payload bytes
//            (checksum covers seq + fingerprint + payload; seq starts at 1
//            and increases by exactly 1 per record; fingerprint is the
//            engine Fingerprint() *after* the batch applied)
//
// The scanner walks records front to back, never trusting a length prefix
// beyond the bytes actually present, and stops at the first record whose
// header is short, whose length overruns the file, whose checksum fails, or
// whose sequence number breaks the chain. Everything before the stop point
// is valid; everything after is a torn tail to truncate. A torn tail is the
// expected result of `kill -9` mid-append, not an error.
//
// Durability policies (WalOptions::fsync):
//   kAlways  fsync after every append; Append() returning OK is an
//            acknowledgment that the batch is on disk.
//   kBatch   fsync once every `batch_every` appends (and on Sync/Close);
//            a crash can lose up to one sync window of *acknowledged*
//            batches, never a prefix-violating subset.
//   kOff     never fsync on append (the OS decides); Sync/Close still sync.
//
// A failed write or fsync (bounded retries with backoff) poisons the log:
// every later Append fails with FailedPrecondition, because the on-disk
// suffix is unknown. Recovery via a fresh OpenDurable is the only way back.
//
// DeltaWal is not thread-safe; like FunctionalDatabase, writes are owned by
// one thread at a time.

#ifndef RELSPEC_CORE_WAL_H_
#define RELSPEC_CORE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/term/symbol_table.h"

namespace relspec {

/// When appended records reach the disk.
enum class FsyncMode { kAlways, kBatch, kOff };

/// Parses "always" | "batch" | "off" (the CLI --fsync values).
StatusOr<FsyncMode> ParseFsyncMode(std::string_view name);
const char* FsyncModeName(FsyncMode mode);

struct WalOptions {
  FsyncMode fsync = FsyncMode::kAlways;
  /// kBatch: fsync once every this many appends.
  uint64_t batch_every = 32;
  /// Bounded fsync retry: total attempts (>= 1) and the initial backoff,
  /// doubled after each failed attempt. Only EINTR/EAGAIN are retried;
  /// a real I/O error is fatal immediately (retrying fsync after EIO can
  /// silently drop the dirty pages the first failure already lost).
  int fsync_attempts = 4;
  int fsync_backoff_ms = 2;
};

/// One valid record recovered from a log.
struct WalRecord {
  uint64_t seq = 0;
  uint64_t fingerprint = 0;  // engine fingerprint after this batch
  std::string payload;       // delta text, replayable via ApplyDeltaText
};

/// What a scan found: the longest valid prefix and the torn tail after it.
struct WalScanResult {
  uint64_t base_fingerprint = 0;  // from the header: fingerprint before seq 1
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;      // file offset just past the last valid record
  uint64_t truncated_bytes = 0;  // torn/corrupt tail bytes after valid_bytes
};

class DeltaWal {
 public:
  static constexpr char kMagic[4] = {'R', 'W', 'A', 'L'};
  static constexpr uint32_t kVersion = 1;
  static constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;
  static constexpr size_t kRecordHeaderSize = 4 + 8 + 8 + 8;
  /// Upper bound on one payload; a length prefix above this is corruption,
  /// so the scanner never allocates more than this on untrusted input.
  static constexpr uint32_t kMaxPayloadBytes = 1u << 28;

  /// Creates a fresh log at `path` (truncating any existing file), stamped
  /// with the fingerprint of the engine state the log starts from.
  static StatusOr<std::unique_ptr<DeltaWal>> Create(
      const std::string& path, uint64_t base_fingerprint,
      const WalOptions& options = {});

  /// Validates `path` record by record. NotFound if the file is missing;
  /// InvalidArgument if the header itself is unreadable. A torn or corrupt
  /// tail is not an error — it is reported via truncated_bytes.
  static StatusOr<WalScanResult> Scan(const std::string& path);
  /// Same, over in-memory bytes (tests, fuzzing).
  static StatusOr<WalScanResult> ScanBytes(std::string_view bytes);

  /// Opens a scanned log for appending, physically truncating the torn tail
  /// recorded in `scan` first. The next record continues the sequence chain.
  static StatusOr<std::unique_ptr<DeltaWal>> OpenForAppend(
      const std::string& path, const WalScanResult& scan,
      const WalOptions& options = {});

  /// Exact serialized forms (tests and corpus generation).
  static std::string SerializeHeader(uint64_t base_fingerprint);
  static std::string SerializeRecord(uint64_t seq, uint64_t fingerprint,
                                     std::string_view payload);

  /// Reads a whole file; NotFound if it does not exist.
  static StatusOr<std::string> ReadFile(const std::string& path);

  /// Writes `bytes` to `path` (truncating), fsyncing the file when
  /// `durable`. Used to stage checkpoint/log `.tmp` files before the
  /// rename-based rotation makes them live.
  static Status WriteFileDurable(const std::string& path,
                                 std::string_view bytes, bool durable,
                                 const WalOptions& options = {});

  /// rename(2) with Status mapping. With `ignore_missing`, a nonexistent
  /// source is OK (rotation steps re-run idempotently after a crash).
  static Status RenameFile(const std::string& from, const std::string& to,
                           bool ignore_missing = false);

  /// Fsyncs the directory containing `path` (best effort), making a
  /// just-created or just-renamed entry durable. A failure is counted in
  /// wal.dir_fsync_failures and logged, not returned.
  static void SyncDir(const std::string& path);

  ~DeltaWal();
  DeltaWal(const DeltaWal&) = delete;
  DeltaWal& operator=(const DeltaWal&) = delete;

  /// Appends one record; when it returns OK under FsyncMode::kAlways the
  /// record is durably on disk (this is the acknowledgment the crash tests
  /// hold us to). `fingerprint_after` is the engine fingerprint with the
  /// batch applied — recovery validates the chain against it.
  Status Append(uint64_t fingerprint_after, std::string_view payload);

  /// Forces everything appended so far to disk (bounded retries).
  Status Sync();

  /// Syncs (unless broken) and closes the descriptor. Idempotent.
  Status Close();

  const std::string& path() const { return path_; }
  uint64_t base_fingerprint() const { return base_fingerprint_; }
  /// Sequence number the next Append will use.
  uint64_t next_seq() const { return next_seq_; }
  /// True after a failed write/fsync: the on-disk suffix is unknown, so all
  /// further appends are refused.
  bool broken() const { return broken_; }

 private:
  DeltaWal(std::string path, int fd, uint64_t base_fingerprint,
           uint64_t next_seq, const WalOptions& options);

  Status AppendImpl(uint64_t fingerprint_after, std::string_view payload);
  Status SyncImpl();

  std::string path_;
  WalOptions options_;
  int fd_ = -1;
  uint64_t base_fingerprint_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t unsynced_appends_ = 0;
  bool broken_ = false;
};

// ---------------------------------------------------------------------------
// Checkpoint container ("RCKP")
// ---------------------------------------------------------------------------
//
// A checkpoint anchors the log: it holds the edited program text (enough to
// rebuild the engine through the normal pipeline), the engine's symbol table
// in interning order, and the serialized RSNP graph snapshot of the same
// state (recovery cross-checks the rebuilt spec against it byte for byte).
//
// The symbol table is not redundant with the program text: ids are assigned
// by first appearance, and the engine's historical order diverges from the
// rendered text's order once facts move (delete + re-insert) or a noop edit
// interns a symbol no surviving fact mentions. Re-parsing the text with the
// stored table as seed (ParseProgram's seeded overload) reproduces the
// engine byte for byte; re-parsing the text alone does not.
//
// Layout:
//
//   "RCKP" | u32 version | u64 checksum | u64 fingerprint
//   | u32 num_predicates | { u32 name_len | name | u32 arity | u8 functional }
//   | u32 num_functions  | { u32 name_len | name | u32 arity }
//   | u32 num_constants  | { u32 name_len | name }
//   | u32 num_variables  | { u32 name_len | name }
//   | u32 program_len | program bytes | u32 snapshot_len | snapshot bytes
//
// (checksum covers everything after it). Every length and count is validated
// against the remaining file size before any allocation.

struct CheckpointData {
  uint64_t fingerprint = 0;
  SymbolTable symbols;  // the engine's table, in interning order
  std::string program_text;
  std::string snapshot_bytes;
};

std::string SerializeCheckpoint(uint64_t fingerprint,
                                const SymbolTable& symbols,
                                std::string_view program_text,
                                std::string_view snapshot_bytes);
StatusOr<CheckpointData> ParseCheckpoint(std::string_view bytes);

}  // namespace relspec

#endif  // RELSPEC_CORE_WAL_H_
