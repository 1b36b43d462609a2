// Binary snapshots of relational specifications.
//
// A snapshot is the one load path for a saved specification: the
// self-contained specification — primary database (slices + globals),
// symbol table, and graph/equational structure — in a versioned,
// checksummed binary layout that loads without parsing. Only graph
// snapshots (B, F) are read back: a loaded graph spec answers membership
// and queries exactly as the engine it was saved from, and prints the same
// SpecIo text (the differential/golden tests hold it to that). Equational
// snapshots (B, R) are written but not read; B cannot be rebuilt without F,
// and BuildEquationalSpecification over a loaded graph spec gives the same
// (B, R) bytes.
//
// Wire layout (see docs/SNAPSHOT_FORMAT.md for the field-level reference):
//
//   header   magic "RSNP" | u32 version | u32 kind | u64 checksum
//   body     sections, each: u32 tag | u64 payload length | payload
//
// All integers are little-endian. The checksum covers every body byte; the
// loader verifies it before looking at any section, and every read is
// bounds-checked, so truncated files, flipped bits, and wrong versions all
// come back as InvalidArgument — never a crash (the fuzz corpus in
// tests/fuzz_parser.cc drives this). A graph spec is also checked to be one
// the Link walk can read (depths, trunk, boundary; docs/SNAPSHOT_FORMAT.md),
// so no read of a loaded spec throws.

#ifndef RELSPEC_CORE_SNAPSHOT_H_
#define RELSPEC_CORE_SNAPSHOT_H_

#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/core/equational_spec.h"
#include "src/core/graph_spec.h"

namespace relspec {

class Snapshot {
 public:
  enum class Kind : uint32_t { kGraph = 1, kEquational = 2 };

  static constexpr char kMagic[4] = {'R', 'S', 'N', 'P'};
  /// The version every snapshot is written at. The graph loader also reads
  /// version 1, which stored representatives as paths.
  static constexpr uint32_t kVersion = 2;

  /// Serializes a graph specification (B, F) to snapshot bytes.
  static std::string Serialize(const GraphSpecification& spec);
  /// Serializes an equational specification (B, R) to snapshot bytes.
  static std::string Serialize(const EquationalSpecification& spec);

  /// The kind recorded in a snapshot header (validates magic + version +
  /// checksum reachability only as far as the header).
  static StatusOr<Kind> PeekKind(std::string_view bytes);

  /// The same graph snapshot at kVersion: `bytes` itself when already
  /// current, otherwise loaded and re-serialized. InvalidArgument for an
  /// equational snapshot, which is not read.
  static StatusOr<std::string> Upgrade(std::string_view bytes);

  /// Parses a graph-spec snapshot; the result is fully queryable.
  static StatusOr<GraphSpecification> ParseGraphSpec(std::string_view bytes);
};

}  // namespace relspec

#endif  // RELSPEC_CORE_SNAPSHOT_H_
