#include "src/core/snapshot.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "src/base/metrics.h"
#include "src/base/str_util.h"

namespace relspec {
namespace {

// Section tags. Mandatory sections are validated per kind after reading.
enum SectionTag : uint32_t {
  kSecMeta = 1,      // depths, truncation marker
  kSecSymbols = 2,   // the symbol table
  kSecAlphabet = 3,  // graph only: alphabet function ids
  kSecAtoms = 4,     // slice-atom dictionary
  kSecClusters = 5,  // clusters: tree edge, slice, successors (graph only)
  kSecBoundary = 6,  // graph only: frontier path -> cluster (shortlex order)
  kSecEquations = 7, // equational only: R as (cluster, symbol, cluster)
  kSecGlobals = 8,   // ground non-functional facts of B
};

constexpr size_t kHeaderSize = 4 + 4 + 4 + 8;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Chained splitmix over 8-byte blocks (tail zero-padded): cheap, and any
// flipped bit avalanches into the final value.
uint64_t Checksum(std::string_view bytes) {
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

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

class Writer {
 public:
  /// A writer for a file of `size` bytes, which it allocates once. The
  /// file starts with the header Finish fills in.
  explicit Writer(size_t size) {
    out_.reserve(size);
    out_.resize(kHeaderSize);
  }

  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Store32(Grow(4), v); }
  void U64(uint64_t v) {
    char* p = Grow(8);
    for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  /// A u32 count, then that many u32s.
  void U32s(std::span<const uint32_t> vs) {
    StoreU32s(Grow(4 * (1 + vs.size())), vs);
  }

  /// Closes the pending section (tag recorded by Begin) by patching its
  /// length field.
  void Begin(uint32_t tag) {
    U32(tag);
    U64(0);  // patched by End
    section_start_ = out_.size();
  }
  void End() {
    uint64_t len = out_.size() - section_start_;
    for (int i = 0; i < 8; ++i) {
      out_[section_start_ - 8 + i] = static_cast<char>(len >> (8 * i));
    }
  }

  /// Appends `n` bytes, to be stored by the caller, and returns the first:
  /// a run of values costs one resize instead of a push_back per byte.
  char* Grow(size_t n) {
    const size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }
  /// Stores `v` little-endian at `p`; returns the byte after it.
  static char* Store32(char* p, uint32_t v) {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(v >> (8 * i));
    return p + 4;
  }
  /// Stores U32s(vs) at `p`; returns the byte after it.
  static char* StoreU32s(char* p, std::span<const uint32_t> vs) {
    p = Store32(p, static_cast<uint32_t>(vs.size()));
    for (uint32_t v : vs) p = Store32(p, v);
    return p;
  }
  /// Stores a bit set at `p`: its universe size, its element count, then
  /// its elements ascending. Returns the byte after it.
  static char* StoreBits(char* p, BitView b) {
    p = Store32(p, static_cast<uint32_t>(b.size()));
    char* count = p;
    p += 4;
    uint32_t n = 0;
    b.ForEach([&](size_t i) {
      p = Store32(p, static_cast<uint32_t>(i));
      ++n;
    });
    Store32(count, n);
    return p;
  }

  /// Fills in the header the constructor reserved (magic, version, kind,
  /// the body's checksum) and hands over the file.
  std::string Finish(Snapshot::Kind kind) {
    char* p = out_.data();
    std::memcpy(p, Snapshot::kMagic, 4);
    p = Store32(p + 4, Snapshot::kVersion);
    p = Store32(p, static_cast<uint32_t>(kind));
    const uint64_t sum =
        Checksum(std::string_view(out_).substr(kHeaderSize));
    for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(sum >> (8 * i));
    return std::move(out_);
  }

 private:
  /// The file: a header, patched by Finish, then the sections.
  std::string out_;
  size_t section_start_ = 0;
};

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

// Bounds-checked little-endian reader over one section's payload.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  Status U8(uint8_t* v) {
    if (pos_ + 1 > size_) return Truncated();
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }
  Status U32(uint32_t* v) {
    if (pos_ + 4 > size_) return Truncated();
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return Status::OK();
  }
  Status U64(uint64_t* v) {
    if (pos_ + 8 > size_) return Truncated();
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return Status::OK();
  }
  Status I32(int32_t* v) {
    uint32_t u = 0;
    RELSPEC_RETURN_NOT_OK(U32(&u));
    *v = static_cast<int32_t>(u);
    return Status::OK();
  }
  Status Str(std::string* s) {
    uint32_t n = 0;
    RELSPEC_RETURN_NOT_OK(U32(&n));
    if (pos_ + n > size_ || n > size_) return Truncated();
    s->assign(data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Status PathOf(Path* p) {
    uint32_t n = 0;
    RELSPEC_RETURN_NOT_OK(U32(&n));
    // Each symbol costs 4 bytes; reject counts the payload cannot hold
    // before reserving.
    if (n > (size_ - pos_) / 4) return Truncated();
    std::vector<FuncId> syms;
    syms.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t f = 0;
      RELSPEC_RETURN_NOT_OK(U32(&f));
      syms.push_back(f);
    }
    *p = Path(std::move(syms));
    return Status::OK();
  }
  /// Reads a bit set over [0, universe) into the zeroed `words`.
  Status Bits(uint64_t* words, size_t universe) {
    uint32_t stored = 0, count = 0;
    RELSPEC_RETURN_NOT_OK(U32(&stored));
    RELSPEC_RETURN_NOT_OK(U32(&count));
    if (stored != universe) {
      return Status::InvalidArgument("snapshot: bitset universe mismatch");
    }
    if (count > (size_ - pos_) / 4) return Truncated();
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t bit = 0;
      RELSPEC_RETURN_NOT_OK(U32(&bit));
      if (bit >= universe) {
        return Status::InvalidArgument("snapshot: bit index out of range");
      }
      words[bit / 64] |= uint64_t{1} << (bit % 64);
    }
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  static Status Truncated() {
    return Status::InvalidArgument("snapshot: truncated section");
  }
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Shared section payloads
// ---------------------------------------------------------------------------

// The bytes of each section, header included, so that a snapshot is sized
// before it is written.
constexpr size_t kSectionHeader = 4 + 8;

size_t SymbolsBytes(const SymbolTable& symbols) {
  size_t n = kSectionHeader + 3 * 4;
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    n += 4 + symbols.predicate(p).name.size() + 4 + 1;
  }
  for (FuncId f = 0; f < symbols.num_functions(); ++f) {
    n += 4 + symbols.function(f).name.size() + 4;
  }
  for (ConstId c = 0; c < symbols.num_constants(); ++c) {
    n += 4 + symbols.constant_name(c).size();
  }
  return n;
}

// A table of atoms or globals: a count, then per row its predicate, its
// argument count and its arguments.
size_t AtomsBytes(const AtomTable& atoms) {
  return kSectionHeader + 4 + 8 * atoms.size() + 4 * atoms.num_args();
}

size_t MetaBytes(bool truncated, const Status& breach) {
  return kSectionHeader + 4 + 4 + 4 + 1 +
         (truncated ? 4 + 4 + breach.message().size() : 0);
}

// `bits` is the number of label elements over all clusters.
size_t ClustersBytes(const LabelGraph& g, bool successors, size_t bits) {
  const size_t k = g.alphabet().size();
  return kSectionHeader + 4 +
         g.num_clusters() * (1 + 4 * 4 + (successors ? 4 * (1 + k) : 0)) +
         4 * bits;
}

size_t LabelBits(const LabelGraph& g) {
  size_t bits = 0;
  for (uint32_t c = 0; c < g.num_clusters(); ++c) bits += g.label(c).Count();
  return bits;
}

void WriteSymbols(const SymbolTable& symbols, Writer* w) {
  w->Begin(kSecSymbols);
  w->U32(static_cast<uint32_t>(symbols.num_predicates()));
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    const PredicateInfo& info = symbols.predicate(p);
    w->Str(info.name);
    w->I32(info.arity);
    w->U8(info.functional ? 1 : 0);
  }
  w->U32(static_cast<uint32_t>(symbols.num_functions()));
  for (FuncId f = 0; f < symbols.num_functions(); ++f) {
    const FunctionInfo& info = symbols.function(f);
    w->Str(info.name);
    w->I32(info.arity);
  }
  w->U32(static_cast<uint32_t>(symbols.num_constants()));
  for (ConstId c = 0; c < symbols.num_constants(); ++c) {
    w->Str(symbols.constant_name(c));
  }
  w->End();
}

Status ReadSymbols(Reader* r, SymbolTable* symbols) {
  uint32_t n = 0;
  RELSPEC_RETURN_NOT_OK(r->U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    int32_t arity = 0;
    uint8_t functional = 0;
    RELSPEC_RETURN_NOT_OK(r->Str(&name));
    RELSPEC_RETURN_NOT_OK(r->I32(&arity));
    RELSPEC_RETURN_NOT_OK(r->U8(&functional));
    RELSPEC_RETURN_NOT_OK(
        symbols->InternPredicate(name, arity, functional != 0).status());
  }
  RELSPEC_RETURN_NOT_OK(r->U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    int32_t arity = 0;
    RELSPEC_RETURN_NOT_OK(r->Str(&name));
    RELSPEC_RETURN_NOT_OK(r->I32(&arity));
    RELSPEC_RETURN_NOT_OK(symbols->InternFunction(name, arity).status());
  }
  RELSPEC_RETURN_NOT_OK(r->U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    RELSPEC_RETURN_NOT_OK(r->Str(&name));
    symbols->InternConstant(name);
  }
  return Status::OK();
}

// Atoms and globals share a row layout: u32 pred | u32 argc | argc u32s.
void WriteAtomRows(uint32_t tag, const AtomTable& atoms, Writer* w) {
  w->Begin(tag);
  w->U32(static_cast<uint32_t>(atoms.size()));
  for (const AtomRef a : atoms) {
    w->U32(a.pred);
    w->U32s(a.args);
  }
  w->End();
}

// Reads rows into the empty `atoms`: each row's predicate must be one
// `fits(info, argc)` accepts, its constants in range, and no row may repeat
// an earlier one. `what` names the section in messages.
template <typename Fits>
Status ReadAtomRows(Reader* r, const SymbolTable& symbols, const char* what,
                    Fits&& fits, AtomTable* atoms) {
  uint32_t n = 0;
  RELSPEC_RETURN_NOT_OK(r->U32(&n));
  std::vector<ConstId> args;
  for (uint32_t i = 0; i < n; ++i) {
    PredId pred = 0;
    RELSPEC_RETURN_NOT_OK(r->U32(&pred));
    if (pred >= symbols.num_predicates()) {
      return Status::InvalidArgument(
          StrFormat("snapshot: %s predicate out of range", what));
    }
    uint32_t argc = 0;
    RELSPEC_RETURN_NOT_OK(r->U32(&argc));
    args.clear();
    for (uint32_t k = 0; k < argc; ++k) {
      uint32_t c = 0;
      RELSPEC_RETURN_NOT_OK(r->U32(&c));
      if (c >= symbols.num_constants()) {
        return Status::InvalidArgument(
            StrFormat("snapshot: %s constant out of range", what));
      }
      args.push_back(c);
    }
    if (!fits(symbols.predicate(pred), argc)) {
      return Status::InvalidArgument(
          StrFormat("snapshot: %s does not fit its predicate", what));
    }
    if (atoms->Intern(pred, args) != i) {
      return Status::InvalidArgument(StrFormat("snapshot: duplicate %s", what));
    }
  }
  return Status::OK();
}

// A slice atom is P(t, args...) of a functional predicate: a query joins
// its args as one column each.
Status ReadAtoms(Reader* r, const SymbolTable& symbols, AtomTable* atoms) {
  return ReadAtomRows(
      r, symbols, "atom",
      [](const PredicateInfo& info, uint32_t argc) {
        return info.functional && static_cast<int64_t>(argc) + 1 == info.arity;
      },
      atoms);
}

Status ReadGlobals(Reader* r, const SymbolTable& symbols, AtomTable* globals) {
  return ReadAtomRows(
      r, symbols, "global",
      [](const PredicateInfo& info, uint32_t argc) {
        return !info.functional && static_cast<int64_t>(argc) == info.arity;
      },
      globals);
}

// Version 2 cluster: u8 trunk | u32 parent | u32 symbol | label bits, then
// (graph only) the successor list. Version 1 wrote the representative path
// where version 2 writes (parent, symbol), and successors for both kinds.
// The records are read off the graph's cluster arrays; the section is
// sized first, so it costs one Grow.
void WriteClusters(const LabelGraph& g, bool successors, size_t bits,
                   Writer* w) {
  w->Begin(kSecClusters);
  const uint32_t n = static_cast<uint32_t>(g.num_clusters());
  char* p = w->Grow(ClustersBytes(g, successors, bits) - kSectionHeader);
  p = Writer::Store32(p, n);
  for (uint32_t c = 0; c < n; ++c) {
    *p++ = static_cast<char>(g.is_trunk(c) ? 1 : 0);
    p = Writer::Store32(p, g.parent(c));
    p = Writer::Store32(p, g.symbol(c));
    p = Writer::StoreBits(p, g.label(c));
    if (successors) p = Writer::StoreU32s(p, g.successors(c));
  }
  w->End();
}

// The number of paths over `k` symbols with depth in [lo, hi), or cap + 1
// once it exceeds `cap`. At most 64 multiplications, whatever the depths.
uint64_t CountPaths(uint64_t k, int lo, int hi, uint64_t cap) {
  if (k <= 1) {  // one path per depth, or only the depth-0 path
    const uint64_t n = k == 1 ? static_cast<uint64_t>(hi - lo)
                              : (lo == 0 && hi > 0 ? 1 : 0);
    return std::min(n, cap + 1);
  }
  uint64_t layer = 1, total = 0;
  for (int d = 0; d < hi; ++d) {
    if (d >= lo) total += layer;
    if (total > cap || layer > cap) return cap + 1;
    layer *= k;
  }
  return total;
}

// True when the first `num_trunk` clusters, and only they, are trunk
// clusters laid out as a heap over the k-symbol alphabet: cluster i > 0 is
// f_s(cluster p) for i = k*p+1+s, and its edges lead to its trunk children.
bool TrunkIsHeap(const LabelGraph& g, uint64_t num_trunk) {
  const std::vector<FuncId>& alphabet = g.alphabet();
  const size_t k = alphabet.size();
  for (uint32_t i = 0; i < g.num_clusters(); ++i) {
    if (g.is_trunk(i) != (i < num_trunk)) return false;
    if (!g.is_trunk(i)) continue;
    if (i > 0 && (g.parent(i) != (i - 1) / k ||
                  g.symbol(i) != alphabet[(i - 1) % k])) {
      return false;
    }
    for (size_t s = 0; s < k && k * i + 1 + s < num_trunk; ++s) {
      if (g.SuccessorOf(i, s) != k * i + 1 + s) return false;
    }
  }
  return true;
}

// meta payload: trunk_depth, frontier_depth, unknown_cluster, truncated
// marker (flag + code + message).
void WriteMeta(int trunk_depth, int frontier_depth, uint32_t unknown_cluster,
               bool truncated, const Status& breach, Writer* w) {
  w->Begin(kSecMeta);
  w->I32(trunk_depth);
  w->I32(frontier_depth);
  w->U32(unknown_cluster);
  w->U8(truncated ? 1 : 0);
  if (truncated) {
    w->I32(static_cast<int32_t>(breach.code()));
    w->Str(breach.message());
  }
  w->End();
}

// A graph's frontier is c+1, or c under merge_trunk_frontier.
Status ReadMeta(Reader* r, int* trunk_depth, int* frontier_depth,
                uint32_t* unknown_cluster, bool* truncated, Status* breach) {
  RELSPEC_RETURN_NOT_OK(r->I32(trunk_depth));
  RELSPEC_RETURN_NOT_OK(r->I32(frontier_depth));
  if (*trunk_depth < 0) {
    return Status::InvalidArgument("snapshot: negative trunk depth");
  }
  if (*frontier_depth != *trunk_depth &&
      *frontier_depth != *trunk_depth + 1) {
    return Status::InvalidArgument(
        "snapshot: frontier depth is neither the trunk depth nor one more");
  }
  RELSPEC_RETURN_NOT_OK(r->U32(unknown_cluster));
  uint8_t flag = 0;
  RELSPEC_RETURN_NOT_OK(r->U8(&flag));
  *truncated = flag != 0;
  if (*truncated) {
    int32_t code = 0;
    std::string message;
    RELSPEC_RETURN_NOT_OK(r->I32(&code));
    RELSPEC_RETURN_NOT_OK(r->Str(&message));
    if (code <= 0 || code > static_cast<int>(StatusCode::kDeadlineExceeded)) {
      return Status::InvalidArgument("snapshot: bad breach code");
    }
    *breach = Status(static_cast<StatusCode>(code), std::move(message));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Header + section walk
// ---------------------------------------------------------------------------

struct Section {
  uint32_t tag;
  const char* data;
  size_t size;
};

Status ReadHeader(std::string_view bytes, Snapshot::Kind* kind,
                  uint32_t* version, std::string_view* body) {
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("snapshot: file shorter than header");
  }
  if (std::memcmp(bytes.data(), Snapshot::kMagic, 4) != 0) {
    return Status::InvalidArgument("snapshot: bad magic");
  }
  Reader r(bytes.data() + 4, kHeaderSize - 4);
  uint32_t kind_raw = 0;
  uint64_t checksum = 0;
  RELSPEC_RETURN_NOT_OK(r.U32(version));
  RELSPEC_RETURN_NOT_OK(r.U32(&kind_raw));
  RELSPEC_RETURN_NOT_OK(r.U64(&checksum));
  if (*version != 1 && *version != Snapshot::kVersion) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: unsupported version %u (this build reads v1 and v%u)",
        *version, Snapshot::kVersion));
  }
  if (kind_raw != static_cast<uint32_t>(Snapshot::Kind::kGraph) &&
      kind_raw != static_cast<uint32_t>(Snapshot::Kind::kEquational)) {
    return Status::InvalidArgument("snapshot: unknown kind");
  }
  *kind = static_cast<Snapshot::Kind>(kind_raw);
  *body = bytes.substr(kHeaderSize);
  if (Checksum(*body) != checksum) {
    return Status::InvalidArgument("snapshot: checksum mismatch");
  }
  return Status::OK();
}

StatusOr<std::vector<Section>> ReadSections(std::string_view body) {
  std::vector<Section> out;
  size_t pos = 0;
  while (pos < body.size()) {
    Reader r(body.data() + pos, body.size() - pos);
    uint32_t tag = 0;
    uint64_t len = 0;
    RELSPEC_RETURN_NOT_OK(r.U32(&tag));
    RELSPEC_RETURN_NOT_OK(r.U64(&len));
    pos += 12;
    if (len > body.size() - pos) {
      return Status::InvalidArgument("snapshot: section length exceeds file");
    }
    out.push_back(Section{tag, body.data() + pos, static_cast<size_t>(len)});
    pos += len;
  }
  return out;
}

StatusOr<Section> FindSection(const std::vector<Section>& sections,
                              uint32_t tag) {
  for (const Section& s : sections) {
    if (s.tag == tag) return s;
  }
  return Status::InvalidArgument(
      StrFormat("snapshot: missing section %u", tag));
}

}  // namespace

// ---------------------------------------------------------------------------
// Graph specification
// ---------------------------------------------------------------------------

std::string Snapshot::Serialize(const GraphSpecification& spec) {
  RELSPEC_PHASE("snapshot.save");
  const LabelGraph& g = spec.graph();
  const size_t bits = LabelBits(g);
  // The boundary section is a stored copy of the trunk's frontier edges,
  // which the loader checks: per entry its path and its cluster.
  size_t boundary_entries = 0, boundary_symbols = 0;
  g.ForEachBoundaryEntry([&](std::span<const FuncId> path, uint32_t) {
    ++boundary_entries;
    boundary_symbols += path.size();
  });
  Writer w(kHeaderSize + MetaBytes(g.truncated(), g.breach()) +
           SymbolsBytes(spec.symbols()) + kSectionHeader + 4 +
           4 * spec.alphabet().size() + AtomsBytes(spec.atom_dictionary()) +
           ClustersBytes(g, /*successors=*/true, bits) + kSectionHeader + 4 +
           8 * boundary_entries + 4 * boundary_symbols +
           AtomsBytes(spec.globals()));
  WriteMeta(g.trunk_depth(), g.frontier_depth(), g.unknown_cluster(),
            g.truncated(), g.breach(), &w);
  WriteSymbols(spec.symbols(), &w);

  w.Begin(kSecAlphabet);
  w.U32s(spec.alphabet());
  w.End();

  WriteAtomRows(kSecAtoms, spec.atom_dictionary(), &w);
  WriteClusters(g, /*successors=*/true, bits, &w);

  w.Begin(kSecBoundary);
  w.U32(static_cast<uint32_t>(boundary_entries));
  g.ForEachBoundaryEntry([&](std::span<const FuncId> path, uint32_t cluster) {
    w.U32s(path);
    w.U32(cluster);
  });
  w.End();

  WriteAtomRows(kSecGlobals, spec.globals(), &w);
  return w.Finish(Kind::kGraph);
}

StatusOr<Snapshot::Kind> Snapshot::PeekKind(std::string_view bytes) {
  Kind kind;
  uint32_t version = 0;
  std::string_view body;
  RELSPEC_RETURN_NOT_OK(ReadHeader(bytes, &kind, &version, &body));
  return kind;
}

StatusOr<std::string> Snapshot::Upgrade(std::string_view bytes) {
  Kind kind;
  uint32_t version = 0;
  std::string_view body;
  RELSPEC_RETURN_NOT_OK(ReadHeader(bytes, &kind, &version, &body));
  if (kind != Kind::kGraph) {
    return Status::InvalidArgument("snapshot: not a graph specification");
  }
  if (version == kVersion) return std::string(bytes);
  RELSPEC_ASSIGN_OR_RETURN(GraphSpecification spec, ParseGraphSpec(bytes));
  return Serialize(spec);
}

StatusOr<GraphSpecification> Snapshot::ParseGraphSpec(std::string_view bytes) {
  RELSPEC_PHASE("snapshot.load");
  Kind kind;
  uint32_t version = 0;
  std::string_view body;
  RELSPEC_RETURN_NOT_OK(ReadHeader(bytes, &kind, &version, &body));
  if (kind != Kind::kGraph) {
    return Status::InvalidArgument("snapshot: not a graph specification");
  }
  RELSPEC_ASSIGN_OR_RETURN(std::vector<Section> sections, ReadSections(body));
  GraphSpecification spec;
  LabelGraph& g = spec.graph_;

  {
    RELSPEC_ASSIGN_OR_RETURN(Section s, FindSection(sections, kSecMeta));
    Reader r(s.data, s.size);
    RELSPEC_RETURN_NOT_OK(ReadMeta(&r, &g.trunk_depth_, &g.frontier_depth_,
                                   &g.unknown_cluster_, &g.truncated_,
                                   &g.breach_));
  }
  {
    RELSPEC_ASSIGN_OR_RETURN(Section s, FindSection(sections, kSecSymbols));
    Reader r(s.data, s.size);
    RELSPEC_RETURN_NOT_OK(ReadSymbols(&r, &spec.symbols_));
  }
  {
    RELSPEC_ASSIGN_OR_RETURN(Section s, FindSection(sections, kSecAlphabet));
    Reader r(s.data, s.size);
    uint32_t n = 0;
    RELSPEC_RETURN_NOT_OK(r.U32(&n));
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t f = 0;
      RELSPEC_RETURN_NOT_OK(r.U32(&f));
      if (f >= spec.symbols_.num_functions()) {
        return Status::InvalidArgument(
            "snapshot: alphabet symbol out of range");
      }
      // Successor indexes are found by binary search over the alphabet.
      if (!g.alphabet_.empty() && f <= g.alphabet_.back()) {
        return Status::InvalidArgument(
            "snapshot: alphabet is not strictly ascending");
      }
      g.alphabet_.push_back(f);
    }
  }
  {
    RELSPEC_ASSIGN_OR_RETURN(Section s, FindSection(sections, kSecAtoms));
    Reader r(s.data, s.size);
    RELSPEC_RETURN_NOT_OK(ReadAtoms(&r, spec.symbols_, &spec.atoms_));
  }
  {
    // Either version's records, into the graph's arrays. The alphabet
    // bounds the tree symbols (a version 1 path is linked into the tree,
    // which checks the same), and each record must hold one successor per
    // alphabet symbol, each naming one of the n clusters. A record's
    // successor count is checked as soon as it is read, so the graph's
    // successor rows grow only with the bytes the section holds.
    RELSPEC_ASSIGN_OR_RETURN(Section s, FindSection(sections, kSecClusters));
    Reader r(s.data, s.size);
    g.SetNumAtoms(spec.atoms_.size());
    uint32_t n = 0;
    RELSPEC_RETURN_NOT_OK(r.U32(&n));
    const size_t k = g.alphabet_.size();
    std::vector<Path> reps;  // version 1 only
    for (uint32_t i = 0; i < n; ++i) {
      uint8_t trunk = 0;
      uint32_t parent = kInvalidId;
      FuncId symbol = 0;
      RELSPEC_RETURN_NOT_OK(r.U8(&trunk));
      if (version == 1) {
        RELSPEC_RETURN_NOT_OK(r.PathOf(&reps.emplace_back()));
      } else {
        RELSPEC_RETURN_NOT_OK(r.U32(&parent));
        RELSPEC_RETURN_NOT_OK(r.U32(&symbol));
        if (parent == kInvalidId
                ? symbol != 0
                : parent >= i || g.SymIndexOf(symbol) == kInvalidId) {
          return Status::InvalidArgument(
              "snapshot: cluster tree edge out of range");
        }
      }
      const uint32_t c = g.AddCluster(parent, symbol, trunk != 0);
      RELSPEC_RETURN_NOT_OK(r.Bits(g.MutableLabel(c), g.num_atoms_));
      uint32_t succ = 0;
      RELSPEC_RETURN_NOT_OK(r.U32(&succ));
      if (succ != k) {
        return Status::InvalidArgument("snapshot: successor count mismatch");
      }
      uint32_t* row = g.MutableSuccessors(c);
      for (uint32_t j = 0; j < succ; ++j) {
        RELSPEC_RETURN_NOT_OK(r.U32(&row[j]));
        if (row[j] >= n) {
          return Status::InvalidArgument("snapshot: successor out of range");
        }
      }
    }
    if (version == 1) {
      Status linked = g.LinkRepresentatives(reps);
      if (!linked.ok()) {
        return Status::InvalidArgument("snapshot: " + linked.message());
      }
    }
    // The Link walk enters the trunk at cluster 0 and follows its edges, so
    // the trunk must be the paths above the frontier laid out as a heap:
    // cluster i is trunk path i in shortlex order, and its edges lead to its
    // trunk children. Their number is checked first, so a forged depth
    // enumerates nothing.
    if (n == 0) return Status::InvalidArgument("snapshot: no cluster");
    const uint64_t num_trunk =
        CountPaths(g.alphabet_.size(), 0, g.frontier_depth_, n);
    if (num_trunk > n) {
      return Status::InvalidArgument(
          "snapshot: trunk cluster count does not match the frontier depth");
    }
    if (!TrunkIsHeap(g, num_trunk)) {
      return Status::InvalidArgument(
          "snapshot: trunk clusters are not the paths above the frontier");
    }
    // A graph has an unknown sink exactly when it is truncated.
    if (g.truncated_ ? g.unknown_cluster_ >= n
                     : g.unknown_cluster_ != kInvalidId) {
      return Status::InvalidArgument(
          "snapshot: unknown sink does not match the truncation marker");
    }
  }
  {
    // The boundary section is a copy of the trunk's frontier edges, which
    // the Link walk reads; it must agree with them entry for entry.
    RELSPEC_ASSIGN_OR_RETURN(Section s, FindSection(sections, kSecBoundary));
    Reader r(s.data, s.size);
    const Status mismatch = Status::InvalidArgument(
        "snapshot: boundary does not match the trunk's frontier edges");
    size_t expected = 0;
    g.ForEachBoundaryEntry([&](std::span<const FuncId>, uint32_t) {
      ++expected;
    });
    uint32_t n = 0;
    RELSPEC_RETURN_NOT_OK(r.U32(&n));
    if (n != expected) return mismatch;
    // Each entry is compared as it is read: its depth, its symbols, its
    // cluster. The first short read or differing value stops the reads.
    Status read = Status::OK();
    bool same = true;
    auto expect = [&](uint32_t want) {
      uint32_t stored = 0;
      if (!read.ok() || !same) return;
      read = r.U32(&stored);
      same = read.ok() && stored == want;
    };
    g.ForEachBoundaryEntry([&](std::span<const FuncId> path, uint32_t cluster) {
      expect(static_cast<uint32_t>(path.size()));
      for (FuncId f : path) expect(f);
      expect(cluster);
    });
    RELSPEC_RETURN_NOT_OK(read);
    if (!same) return mismatch;
  }
  {
    RELSPEC_ASSIGN_OR_RETURN(Section s, FindSection(sections, kSecGlobals));
    Reader r(s.data, s.size);
    RELSPEC_RETURN_NOT_OK(ReadGlobals(&r, spec.symbols_, &spec.globals_));
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Equational specification
// ---------------------------------------------------------------------------

// Written for readers of the format, not read back: B is the shared (B, F)'s,
// without its alphabet, successors or boundary.
std::string Snapshot::Serialize(const EquationalSpecification& eq) {
  RELSPEC_PHASE("snapshot.save");
  const GraphSpecification& spec = eq.spec();
  const std::vector<Equation>& equations = eq.equations();
  const size_t bits = LabelBits(spec.graph());
  Writer w(kHeaderSize + MetaBytes(spec.truncated(), spec.breach()) +
           SymbolsBytes(spec.symbols()) + AtomsBytes(spec.atom_dictionary()) +
           ClustersBytes(spec.graph(), /*successors=*/false, bits) +
           kSectionHeader + 4 + 12 * equations.size() +
           AtomsBytes(spec.globals()));
  WriteMeta(spec.trunk_depth(), /*frontier_depth=*/0,
            /*unknown_cluster=*/kInvalidId, spec.truncated(), spec.breach(),
            &w);
  WriteSymbols(spec.symbols(), &w);
  WriteAtomRows(kSecAtoms, spec.atom_dictionary(), &w);
  WriteClusters(spec.graph(), /*successors=*/false, bits, &w);

  // Version 2 equation: u32 cluster | u32 symbol | u32 target cluster.
  w.Begin(kSecEquations);
  char* p = w.Grow(4 * (1 + 3 * equations.size()));
  p = Writer::Store32(p, static_cast<uint32_t>(equations.size()));
  for (const Equation& e : equations) {
    p = Writer::Store32(p, e.cluster);
    p = Writer::Store32(p, e.symbol);
    p = Writer::Store32(p, e.target);
  }
  w.End();

  WriteAtomRows(kSecGlobals, spec.globals(), &w);
  return w.Finish(Kind::kEquational);
}

}  // namespace relspec
