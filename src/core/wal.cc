#include "src/core/wal.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "src/base/failpoint.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"

namespace relspec {
namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Chained splitmix over 8-byte blocks (tail zero-padded) — the same scheme
// the RSNP snapshot format uses, so one flipped bit anywhere avalanches.
uint64_t WalChecksum(std::string_view bytes) {
  uint64_t h = Mix(0x243f6a8885a308d3ull ^ bytes.size());
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = Mix(h ^ word);
  }
  if (i < bytes.size()) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, bytes.size() - i);
    h = Mix(h ^ word);
  }
  return h;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}
uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::Internal(
      StrFormat("wal: %s '%s' failed: %s", op, path.c_str(), strerror(errno)));
}

// Full write with EINTR/short-write handling.
Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  const char* p = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  return Status::OK();
}

// fsync with bounded retries and doubling backoff. Only EINTR/EAGAIN are
// retried; after a genuine I/O error the kernel may already have dropped the
// dirty pages, so "retry until it works" would turn data loss into a false
// durability ack.
Status FsyncBounded(int fd, const std::string& path,
                    const WalOptions& options) {
  int backoff_ms = options.fsync_backoff_ms;
  int attempts = options.fsync_attempts < 1 ? 1 : options.fsync_attempts;
  for (int attempt = 0;; ++attempt) {
    auto start = std::chrono::steady_clock::now();
    int rc = ::fsync(fd);
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    RELSPEC_HISTOGRAM("wal.fsync_ns", static_cast<uint64_t>(ns));
    if (rc == 0) return Status::OK();
    if ((errno != EINTR && errno != EAGAIN) || attempt + 1 >= attempts) {
      return ErrnoStatus("fsync", path);
    }
    RELSPEC_COUNTER("wal.fsync_retries");
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms *= 2;
  }
}

// Makes a just-written or just-renamed directory entry durable. Best-effort
// on filesystems that refuse to fsync directories: a failure does not fail
// the caller, but it is counted (wal.dir_fsync_failures) and logged.
void SyncDirContaining(const std::string& path) {
  std::string dir = ".";
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);
  Status st = failpoint::Active() ? failpoint::Evaluate("wal.dir_fsync")
                                  : Status::OK();
  if (st.ok()) {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
      st = ErrnoStatus("open directory", dir);
    } else {
      if (::fsync(fd) != 0) st = ErrnoStatus("fsync directory", dir);
      ::close(fd);
    }
  }
  if (!st.ok()) {
    RELSPEC_COUNTER("wal.dir_fsync_failures");
    RELSPEC_LOG(kWarning) << "directory sync failed (entry may not be "
                             "durable): "
                          << st.ToString();
  }
}

}  // namespace

StatusOr<FsyncMode> ParseFsyncMode(std::string_view name) {
  if (name == "always") return FsyncMode::kAlways;
  if (name == "batch") return FsyncMode::kBatch;
  if (name == "off") return FsyncMode::kOff;
  return Status::InvalidArgument(
      StrFormat("unknown fsync mode '%s' (want always|batch|off)",
                std::string(name).c_str()));
}

const char* FsyncModeName(FsyncMode mode) {
  switch (mode) {
    case FsyncMode::kAlways:
      return "always";
    case FsyncMode::kBatch:
      return "batch";
    case FsyncMode::kOff:
      return "off";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::string DeltaWal::SerializeHeader(uint64_t base_fingerprint) {
  std::string covered;
  covered.reserve(12);
  PutU32(&covered, kVersion);
  PutU64(&covered, base_fingerprint);
  std::string out;
  out.reserve(kHeaderSize);
  out.append(kMagic, 4);
  out.append(covered);
  PutU64(&out, WalChecksum(covered));
  return out;
}

std::string DeltaWal::SerializeRecord(uint64_t seq, uint64_t fingerprint,
                                      std::string_view payload) {
  std::string covered;
  covered.reserve(16 + payload.size());
  PutU64(&covered, seq);
  PutU64(&covered, fingerprint);
  covered.append(payload);
  std::string out;
  out.reserve(kRecordHeaderSize + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU64(&out, WalChecksum(covered));
  out.append(covered);
  return out;
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

StatusOr<WalScanResult> DeltaWal::ScanBytes(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("wal: file shorter than header");
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return Status::InvalidArgument("wal: bad magic");
  }
  uint32_t version = GetU32(bytes.data() + 4);
  uint64_t base_fingerprint = GetU64(bytes.data() + 8);
  uint64_t header_sum = GetU64(bytes.data() + 16);
  if (WalChecksum(bytes.substr(4, 12)) != header_sum) {
    return Status::InvalidArgument("wal: header checksum mismatch");
  }
  if (version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("wal: unsupported version %u (this build reads v%u)",
                  version, kVersion));
  }

  WalScanResult result;
  result.base_fingerprint = base_fingerprint;
  size_t pos = kHeaderSize;
  uint64_t expect_seq = 1;
  while (pos < bytes.size()) {
    size_t remaining = bytes.size() - pos;
    // Each check below declares the tail torn and stops; the length prefix
    // is only ever trusted after it is proven to fit in the file, so a
    // corrupt 0xFFFFFFFF length cannot trigger a giant allocation.
    if (remaining < kRecordHeaderSize) break;
    uint32_t payload_len = GetU32(bytes.data() + pos);
    if (payload_len > kMaxPayloadBytes) break;
    if (payload_len > remaining - kRecordHeaderSize) break;
    uint64_t sum = GetU64(bytes.data() + pos + 4);
    std::string_view covered = bytes.substr(pos + 12, 16 + payload_len);
    if (WalChecksum(covered) != sum) break;
    uint64_t seq = GetU64(bytes.data() + pos + 12);
    if (seq != expect_seq) break;
    WalRecord rec;
    rec.seq = seq;
    rec.fingerprint = GetU64(bytes.data() + pos + 20);
    rec.payload.assign(bytes.data() + pos + kRecordHeaderSize, payload_len);
    result.records.push_back(std::move(rec));
    pos += kRecordHeaderSize + payload_len;
    ++expect_seq;
  }
  result.valid_bytes = pos;
  result.truncated_bytes = bytes.size() - pos;
  return result;
}

StatusOr<WalScanResult> DeltaWal::Scan(const std::string& path) {
  RELSPEC_TRACE_SPAN("wal", "wal.scan");
  RELSPEC_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  return ScanBytes(bytes);
}

// ---------------------------------------------------------------------------
// Create / open / append
// ---------------------------------------------------------------------------

DeltaWal::DeltaWal(std::string path, int fd, uint64_t base_fingerprint,
                   uint64_t next_seq, const WalOptions& options)
    : path_(std::move(path)),
      options_(options),
      fd_(fd),
      base_fingerprint_(base_fingerprint),
      next_seq_(next_seq) {}

DeltaWal::~DeltaWal() {
  Status st = Close();  // best effort; errors have nowhere to go here
  (void)st;
}

StatusOr<std::unique_ptr<DeltaWal>> DeltaWal::Create(
    const std::string& path, uint64_t base_fingerprint,
    const WalOptions& options) {
  RELSPEC_FAILPOINT("wal.create.write");
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                  0644);
  if (fd < 0) return ErrnoStatus("create", path);
  std::unique_ptr<DeltaWal> wal(
      new DeltaWal(path, fd, base_fingerprint, /*next_seq=*/1, options));
  Status st = WriteAll(fd, SerializeHeader(base_fingerprint), path);
  if (st.ok() && options.fsync != FsyncMode::kOff) {
    st = FsyncBounded(fd, path, options);
    if (st.ok()) SyncDirContaining(path);
  }
  if (!st.ok()) return st;
  RELSPEC_FAILPOINT("wal.create.synced");
  return wal;
}

StatusOr<std::unique_ptr<DeltaWal>> DeltaWal::OpenForAppend(
    const std::string& path, const WalScanResult& scan,
    const WalOptions& options) {
  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  uint64_t next_seq =
      scan.records.empty() ? 1 : scan.records.back().seq + 1;
  std::unique_ptr<DeltaWal> wal(
      new DeltaWal(path, fd, scan.base_fingerprint, next_seq, options));
  if (scan.truncated_bytes > 0) {
    RELSPEC_FAILPOINT("wal.recover.truncate");
    if (::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) != 0) {
      return ErrnoStatus("ftruncate", path);
    }
    RELSPEC_COUNTER_ADD("wal.truncated_bytes", scan.truncated_bytes);
    if (options.fsync != FsyncMode::kOff) {
      RELSPEC_RETURN_NOT_OK(FsyncBounded(fd, path, options));
    }
  }
  if (::lseek(fd, static_cast<off_t>(scan.valid_bytes), SEEK_SET) < 0) {
    return ErrnoStatus("lseek", path);
  }
  return wal;
}

Status DeltaWal::Append(uint64_t fingerprint_after, std::string_view payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal: log is closed");
  }
  if (broken_) {
    return Status::FailedPrecondition(
        "wal: log is broken (a previous write or fsync failed); reopen via "
        "recovery");
  }
  Status st = AppendImpl(fingerprint_after, payload);
  if (!st.ok()) broken_ = true;
  return st;
}

Status DeltaWal::AppendImpl(uint64_t fingerprint_after,
                            std::string_view payload) {
  RELSPEC_TRACE_SPAN("wal", "wal.append");
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("wal: delta batch exceeds max record size");
  }
  std::string record = SerializeRecord(next_seq_, fingerprint_after, payload);
  RELSPEC_FAILPOINT("wal.append.write");
  RELSPEC_RETURN_NOT_OK(WriteAll(fd_, record, path_));
  RELSPEC_FAILPOINT("wal.append.written");
  ++next_seq_;
  ++unsynced_appends_;
  RELSPEC_COUNTER("wal.appended_records");
  RELSPEC_COUNTER_ADD("wal.appended_bytes", record.size());
  switch (options_.fsync) {
    case FsyncMode::kAlways:
      RELSPEC_RETURN_NOT_OK(SyncImpl());
      break;
    case FsyncMode::kBatch:
      if (unsynced_appends_ >= options_.batch_every) {
        RELSPEC_RETURN_NOT_OK(SyncImpl());
      }
      break;
    case FsyncMode::kOff:
      break;
  }
  RELSPEC_FAILPOINT("wal.append.acked");
  return Status::OK();
}

Status DeltaWal::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("wal: log is closed");
  if (broken_) {
    return Status::FailedPrecondition("wal: log is broken");
  }
  Status st = SyncImpl();
  if (!st.ok()) broken_ = true;
  return st;
}

Status DeltaWal::SyncImpl() {
  if (unsynced_appends_ == 0) return Status::OK();
  RELSPEC_TRACE_SPAN("wal", "wal.sync");
  RELSPEC_FAILPOINT("wal.fsync");
  RELSPEC_RETURN_NOT_OK(FsyncBounded(fd_, path_, options_));
  unsynced_appends_ = 0;
  return Status::OK();
}

Status DeltaWal::Close() {
  if (fd_ < 0) return Status::OK();
  Status st = Status::OK();
  if (!broken_) st = SyncImpl();
  ::close(fd_);
  fd_ = -1;
  return st;
}

// ---------------------------------------------------------------------------
// File helpers for the checkpoint/rotation protocol
// ---------------------------------------------------------------------------

StatusOr<std::string> DeltaWal::ReadFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(StrFormat("no file at '%s'", path.c_str()));
    }
    return ErrnoStatus("open", path);
  }
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = ErrnoStatus("read", path);
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return bytes;
}

Status DeltaWal::WriteFileDurable(const std::string& path,
                                  std::string_view bytes, bool durable,
                                  const WalOptions& options) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                  0644);
  if (fd < 0) return ErrnoStatus("create", path);
  Status st = WriteAll(fd, bytes, path);
  if (st.ok() && durable) st = FsyncBounded(fd, path, options);
  ::close(fd);
  if (!st.ok()) ::unlink(path.c_str());
  return st;
}

Status DeltaWal::RenameFile(const std::string& from, const std::string& to,
                            bool ignore_missing) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    if (ignore_missing && errno == ENOENT) return Status::OK();
    return ErrnoStatus("rename", from);
  }
  return Status::OK();
}

void DeltaWal::SyncDir(const std::string& path) { SyncDirContaining(path); }

// ---------------------------------------------------------------------------
// Checkpoint container
// ---------------------------------------------------------------------------

namespace {

void PutName(std::string* out, std::string_view name) {
  PutU32(out, static_cast<uint32_t>(name.size()));
  out->append(name);
}

// Reads a u32 length then that many name bytes, validating against the
// remaining body before touching (let alone allocating) anything.
StatusOr<std::string_view> GetName(std::string_view body, size_t* pos) {
  if (body.size() - *pos < 4) {
    return Status::InvalidArgument("checkpoint: truncated symbol name");
  }
  uint32_t len = GetU32(body.data() + *pos);
  *pos += 4;
  if (len > body.size() - *pos) {
    return Status::InvalidArgument(
        "checkpoint: symbol name length exceeds file");
  }
  std::string_view name = body.substr(*pos, len);
  *pos += len;
  return name;
}

StatusOr<uint32_t> GetCount(std::string_view body, size_t* pos) {
  if (body.size() - *pos < 4) {
    return Status::InvalidArgument("checkpoint: truncated symbol section");
  }
  uint32_t n = GetU32(body.data() + *pos);
  *pos += 4;
  // Each entry carries at least a 4-byte name length, so a count larger
  // than the remaining bytes / 4 cannot be honest. Rejecting here bounds
  // every loop below by the file size.
  if (n > (body.size() - *pos) / 4) {
    return Status::InvalidArgument("checkpoint: symbol count exceeds file");
  }
  return n;
}

}  // namespace

std::string SerializeCheckpoint(uint64_t fingerprint,
                                const SymbolTable& symbols,
                                std::string_view program_text,
                                std::string_view snapshot_bytes) {
  std::string body;
  body.reserve(64 + program_text.size() + snapshot_bytes.size());
  PutU64(&body, fingerprint);
  PutU32(&body, static_cast<uint32_t>(symbols.num_predicates()));
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    const PredicateInfo& info = symbols.predicate(p);
    PutName(&body, info.name);
    PutU32(&body, static_cast<uint32_t>(info.arity));
    body.push_back(info.functional ? 1 : 0);
  }
  PutU32(&body, static_cast<uint32_t>(symbols.num_functions()));
  for (FuncId f = 0; f < symbols.num_functions(); ++f) {
    const FunctionInfo& info = symbols.function(f);
    PutName(&body, info.name);
    PutU32(&body, static_cast<uint32_t>(info.arity));
  }
  PutU32(&body, static_cast<uint32_t>(symbols.num_constants()));
  for (ConstId c = 0; c < symbols.num_constants(); ++c) {
    PutName(&body, symbols.constant_name(c));
  }
  PutU32(&body, static_cast<uint32_t>(symbols.num_variables()));
  for (VarId v = 0; v < symbols.num_variables(); ++v) {
    PutName(&body, symbols.variable_name(v));
  }
  PutU32(&body, static_cast<uint32_t>(program_text.size()));
  body.append(program_text);
  PutU32(&body, static_cast<uint32_t>(snapshot_bytes.size()));
  body.append(snapshot_bytes);
  std::string out;
  out.reserve(16 + body.size());
  out.append("RCKP", 4);
  PutU32(&out, DeltaWal::kVersion);
  PutU64(&out, WalChecksum(body));
  out.append(body);
  return out;
}

StatusOr<CheckpointData> ParseCheckpoint(std::string_view bytes) {
  constexpr size_t kCkptHeader = 4 + 4 + 8;
  if (bytes.size() < kCkptHeader) {
    return Status::InvalidArgument("checkpoint: file shorter than header");
  }
  if (std::memcmp(bytes.data(), "RCKP", 4) != 0) {
    return Status::InvalidArgument("checkpoint: bad magic");
  }
  uint32_t version = GetU32(bytes.data() + 4);
  if (version != DeltaWal::kVersion) {
    return Status::InvalidArgument(
        StrFormat("checkpoint: unsupported version %u", version));
  }
  uint64_t sum = GetU64(bytes.data() + 8);
  std::string_view body = bytes.substr(kCkptHeader);
  if (WalChecksum(body) != sum) {
    return Status::InvalidArgument("checkpoint: checksum mismatch");
  }
  // Past the checksum the body is authenticated, but lengths are still
  // validated against the remaining size before allocating.
  if (body.size() < 12) {
    return Status::InvalidArgument("checkpoint: truncated body");
  }
  CheckpointData data;
  data.fingerprint = GetU64(body.data());
  size_t pos = 8;
  {
    RELSPEC_ASSIGN_OR_RETURN(uint32_t n, GetCount(body, &pos));
    for (uint32_t i = 0; i < n; ++i) {
      RELSPEC_ASSIGN_OR_RETURN(std::string_view name, GetName(body, &pos));
      if (body.size() - pos < 5) {
        return Status::InvalidArgument("checkpoint: truncated predicate");
      }
      uint32_t arity = GetU32(body.data() + pos);
      pos += 4;
      bool functional = body[pos++] != 0;
      auto id = data.symbols.InternPredicate(name, static_cast<int>(arity),
                                             functional);
      if (!id.ok() || *id != i) {
        return Status::InvalidArgument("checkpoint: bad predicate table");
      }
      if (functional) {
        RELSPEC_RETURN_NOT_OK(data.symbols.SetFunctional(*id));
      }
    }
  }
  {
    RELSPEC_ASSIGN_OR_RETURN(uint32_t n, GetCount(body, &pos));
    for (uint32_t i = 0; i < n; ++i) {
      RELSPEC_ASSIGN_OR_RETURN(std::string_view name, GetName(body, &pos));
      if (body.size() - pos < 4) {
        return Status::InvalidArgument("checkpoint: truncated function");
      }
      uint32_t arity = GetU32(body.data() + pos);
      pos += 4;
      auto id = data.symbols.InternFunction(name, static_cast<int>(arity));
      if (!id.ok() || *id != i) {
        return Status::InvalidArgument("checkpoint: bad function table");
      }
    }
  }
  {
    RELSPEC_ASSIGN_OR_RETURN(uint32_t n, GetCount(body, &pos));
    for (uint32_t i = 0; i < n; ++i) {
      RELSPEC_ASSIGN_OR_RETURN(std::string_view name, GetName(body, &pos));
      if (data.symbols.InternConstant(name) != i) {
        return Status::InvalidArgument("checkpoint: bad constant table");
      }
    }
  }
  {
    RELSPEC_ASSIGN_OR_RETURN(uint32_t n, GetCount(body, &pos));
    for (uint32_t i = 0; i < n; ++i) {
      RELSPEC_ASSIGN_OR_RETURN(std::string_view name, GetName(body, &pos));
      if (data.symbols.InternVariable(name) != i) {
        return Status::InvalidArgument("checkpoint: bad variable table");
      }
    }
  }
  if (body.size() - pos < 4) {
    return Status::InvalidArgument("checkpoint: truncated body");
  }
  uint32_t prog_len = GetU32(body.data() + pos);
  pos += 4;
  if (prog_len > body.size() - pos) {
    return Status::InvalidArgument("checkpoint: program length exceeds file");
  }
  data.program_text.assign(body.data() + pos, prog_len);
  pos += prog_len;
  if (body.size() - pos < 4) {
    return Status::InvalidArgument("checkpoint: truncated body");
  }
  uint32_t snap_len = GetU32(body.data() + pos);
  pos += 4;
  if (snap_len > body.size() - pos) {
    return Status::InvalidArgument("checkpoint: snapshot length exceeds file");
  }
  data.snapshot_bytes.assign(body.data() + pos, snap_len);
  pos += snap_len;
  if (pos != body.size()) {
    return Status::InvalidArgument("checkpoint: trailing bytes");
  }
  return data;
}

}  // namespace relspec
