#include "src/core/engine.h"

#include <algorithm>

#include "src/ast/printer.h"
#include "src/ast/validate.h"
#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"
#include "src/core/snapshot.h"
#include "src/core/verify.h"
#include "src/parser/parser.h"

namespace relspec {

StatusOr<std::unique_ptr<FunctionalDatabase>> FunctionalDatabase::FromSource(
    std::string_view source, const EngineOptions& options) {
  RELSPEC_ASSIGN_OR_RETURN(ParsedSource parsed, ParseSource(source));
  if (!parsed.queries().empty()) {
    return Status::InvalidArgument(
        "FromSource expects facts and rules only; answer queries through "
        "AnswerQuery/ParseQuery instead");
  }
  return FromParsed(std::move(parsed), options);
}

StatusOr<ParsedSource> FunctionalDatabase::ParseSource(
    std::string_view source) {
  ParsedSource out;
  RELSPEC_ASSIGN_OR_RETURN(out.parsed_, Parse(source));  // validates, too
  return out;
}

StatusOr<std::unique_ptr<FunctionalDatabase>> FunctionalDatabase::FromParsed(
    ParsedSource parsed, const EngineOptions& options) {
  return Build(std::move(parsed.parsed_.program), options);  // Parse checked
}

StatusOr<std::unique_ptr<FunctionalDatabase>> FunctionalDatabase::FromProgram(
    Program program, const EngineOptions& options) {
  {
    RELSPEC_PHASE("validate");
    RELSPEC_RETURN_NOT_OK(ValidateProgram(program));
  }
  return Build(std::move(program), options);
}

StatusOr<std::unique_ptr<FunctionalDatabase>> FunctionalDatabase::Build(
    Program program, const EngineOptions& options) {
  RELSPEC_PHASE("engine.build");
  auto db = std::unique_ptr<FunctionalDatabase>(new FunctionalDatabase());
  {
    // Normalization and purification rewrite program_ in place (and
    // reorder its rules); deltas, checkpoints and the fingerprint read the
    // program as given.
    RELSPEC_PHASE("keep_original");
    db->original_ = program;
  }
  db->program_ = std::move(program);
  RELSPEC_ASSIGN_OR_RETURN(db->normalize_stats_,
                           NormalizeProgram(&db->program_));
  RELSPEC_ASSIGN_OR_RETURN(db->purify_stats_, MixedToPure(&db->program_));
  {
    RELSPEC_PHASE("ground");
    RELSPEC_FAILPOINT("ground.build");
    if (options.governor != nullptr) {
      RELSPEC_RETURN_NOT_OK(options.governor->Check());
    }
    RELSPEC_ASSIGN_OR_RETURN(db->ground_,
                             Ground(db->program_, options.ground));
  }
  FixpointOptions fixpoint = options.fixpoint;
  LabelGraphOptions graph = options.graph;
  if (options.governor != nullptr) {
    fixpoint.governor = options.governor;
    graph.governor = options.governor;
  }
  if (options.allow_partial) {
    fixpoint.allow_partial = true;
    graph.allow_partial = true;
  }
  // The labeling is dropped here: the spec is all a read needs.
  RELSPEC_ASSIGN_OR_RETURN(Labeling labeling,
                           ComputeFixpoint(db->ground_, fixpoint));
  RELSPEC_ASSIGN_OR_RETURN(LabelGraph label_graph,
                           BuildLabelGraph(&labeling, graph));
  RELSPEC_ASSIGN_OR_RETURN(
      GraphSpecification spec,
      BuildGraphSpecification(std::move(label_graph), &labeling,
                              db->program_.symbols));
  db->spec_ = std::make_shared<const GraphSpecification>(std::move(spec));
  return db;
}

StatusOr<bool> FunctionalDatabase::HoldsFact(const Atom& fact) const {
  return spec_->HoldsFact(fact);
}

StatusOr<bool> FunctionalDatabase::HoldsFactText(std::string_view text) const {
  RELSPEC_ASSIGN_OR_RETURN(
      Query q, ParseQuery("? " + std::string(text) + ".", program_.symbols));
  return spec_->HoldsFact(q);
}

StatusOr<GraphSpecification> FunctionalDatabase::BuildGraphSpec() const {
  return *spec_;
}

StatusOr<EquationalSpecification> FunctionalDatabase::BuildEquationalSpec()
    const {
  return BuildEquationalSpecification(spec_);
}

namespace {

// Applies one edit to `facts`, in batch order: insert appends (unless the
// fact is already present), delete erases the first equal fact. Returns
// false for a noop. This is exactly the program a from-scratch rebuild
// would see, which is what makes ApplyDeltas ≡ FromProgram(edited program).
bool EditFacts(std::vector<Atom>* facts, const Atom& fact, bool insert,
               DeltaStats* stats) {
  auto it = std::find(facts->begin(), facts->end(), fact);
  if (insert) {
    if (it != facts->end()) {
      ++stats->noops;
      return false;
    }
    facts->push_back(fact);
    ++stats->inserted;
  } else {
    if (it == facts->end()) {
      ++stats->noops;
      return false;
    }
    facts->erase(it);
    ++stats->deleted;
  }
  return true;
}

}  // namespace

StatusOr<DeltaStats> FunctionalDatabase::ApplyDeltas(
    const std::vector<FactDelta>& deltas, const EngineOptions& options) {
  RELSPEC_PHASE("delta.apply");
  DeltaStats stats;
  Program next = original_;
  for (const FactDelta& d : deltas) {
    if (!d.fact.IsGround()) {
      return Status::InvalidArgument("delta facts must be ground atoms");
    }
    // A fact built in code enters here: check the ones the batch adds.
    if (EditFacts(&next.facts, d.fact, d.insert, &stats) && d.insert) {
      RELSPEC_RETURN_NOT_OK(ValidateFact(d.fact, next.symbols));
    }
  }
  return ApplyEditedProgram(std::move(next), stats, options);
}

StatusOr<DeltaStats> FunctionalDatabase::ApplyDeltaText(
    std::string_view text, const EngineOptions& options) {
  RELSPEC_PHASE("delta.apply");
  DeltaStats stats;
  Program next = original_;
  // Phase 1: parse and validate the whole batch before editing any facts. A
  // bad line k must leave the database untouched — the strong guarantee —
  // and must not even partially edit the scratch program a later error path
  // would abandon. (Parsing interns new symbols into `next.symbols`, the one
  // table a batch writes; `next` is a private copy, so an abandoned batch
  // leaves no trace in *this.)
  const size_t num_predicates = next.symbols.num_predicates();
  struct ParsedEdit {
    bool insert;
    Atom fact;
  };
  std::vector<ParsedEdit> edits;
  // The batch's lines share one successor-expansion budget, so its edits
  // together expand to no more than one parse may, however many lines.
  int64_t expanded = 0;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    // Trim and skip blanks/comments.
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t' ||
                             line.front() == '\r')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    bool insert;
    if (line.front() == '+') {
      insert = true;
    } else if (line.front() == '-') {
      insert = false;
    } else {
      return Status::InvalidArgument(StrFormat(
          "delta line %zu: expected '+ Fact.' or '- Fact.'", line_no));
    }
    line.remove_prefix(1);
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (!line.empty() && line.back() == '.') line.remove_suffix(1);
    // Parse as a one-fact program seeded with the edited copy's table: new
    // constants/functions intern into `next.symbols` exactly as they would
    // when rebuilding from the edited source.
    StatusOr<Program> parsed = ParseProgram(
        std::string(line) + ".", std::move(next.symbols), &expanded);
    if (!parsed.ok()) {
      return Status::InvalidArgument(StrFormat(
          "delta line %zu: %s", line_no, parsed.status().ToString().c_str()));
    }
    if (parsed->facts.size() != 1 || !parsed->rules.empty()) {
      return Status::InvalidArgument(StrFormat(
          "delta line %zu: expected a single ground fact", line_no));
    }
    if (parsed->symbols.num_predicates() != num_predicates) {
      return Status::InvalidArgument(StrFormat(
          "delta line %zu: the fact's predicate does not occur in the program",
          line_no));
    }
    next.symbols = std::move(parsed->symbols);
    edits.push_back(ParsedEdit{insert, std::move(parsed->facts[0])});
  }
  // Phase 2: the batch parsed end to end; apply the edits in order.
  for (const ParsedEdit& e : edits) {
    EditFacts(&next.facts, e.fact, e.insert, &stats);
  }
  return ApplyEditedProgram(std::move(next), stats, options);
}

StatusOr<DeltaStats> FunctionalDatabase::ApplyEditedProgram(
    Program next, DeltaStats stats, const EngineOptions& options) {
  if (stats.inserted == 0 && stats.deleted == 0) {
    RELSPEC_COUNTER("delta.noop_batches");
    return stats;  // nothing changed: state and fingerprint stay intact
  }
  // Rebuild through the same sequence FromProgram runs, into a fresh engine:
  // any error (a failpoint, a resource breach) returns before the commit
  // below and leaves *this unchanged.
  std::unique_ptr<FunctionalDatabase> fresh;
  RELSPEC_ASSIGN_OR_RETURN(fresh, Build(std::move(next), options));

  original_ = std::move(fresh->original_);
  program_ = std::move(fresh->program_);
  normalize_stats_ = fresh->normalize_stats_;
  purify_stats_ = fresh->purify_stats_;
  ground_ = std::move(fresh->ground_);
  spec_ = std::move(fresh->spec_);  // holders of the old spec keep it alive
  fingerprint_ = 0;  // effective delta: re-key the query cache
  stats.rebuilt = true;
  RELSPEC_COUNTER("delta.batches_applied");
  RELSPEC_COUNTER_ADD("delta.facts_inserted", stats.inserted);
  RELSPEC_COUNTER_ADD("delta.facts_deleted", stats.deleted);
  return stats;
}

// ---------------------------------------------------------------------------
// Durability: OpenDurable / LogAndApplyDeltas / Checkpoint
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<FunctionalDatabase>> FunctionalDatabase::OpenDurable(
    std::string_view program_source, const std::string& wal_path,
    const DurableOptions& durable, const EngineOptions& options,
    RecoveryStats* recovery) {
  RELSPEC_PHASE("wal.recover");
  RELSPEC_TRACE_SPAN("wal", "wal.recover");
  RecoveryStats rec;
  const std::string ckpt_path = wal_path + ".ckpt";

  // Candidate bases, newest first: the current checkpoint, the previous
  // generation's checkpoint, and the program source itself (generation-0
  // logs anchor there). A base is valid only if it rebuilds to exactly the
  // fingerprint it claims — for checkpoints, the embedded RSNP snapshot must
  // additionally match the rebuilt spec byte for byte, at the current
  // snapshot version.
  struct Candidate {
    std::string path;  // empty: build from program_source
    bool tried = false;
    std::unique_ptr<FunctionalDatabase> db;  // null once tried: invalid
  };
  Candidate bases[3];
  bases[0].path = ckpt_path;
  bases[1].path = ckpt_path + ".prev";
  Status program_error;  // only meaningful if bases[2] was tried

  auto build_base = [&](Candidate* c) -> FunctionalDatabase* {
    if (c->tried) return c->db.get();
    c->tried = true;
    if (c->path.empty()) {
      auto db = FromSource(program_source, options);
      if (db.ok()) {
        c->db = std::move(*db);
      } else {
        program_error = db.status();
      }
      return c->db.get();
    }
    auto bytes = DeltaWal::ReadFile(c->path);
    if (!bytes.ok()) return nullptr;
    auto data = ParseCheckpoint(*bytes);
    if (!data.ok()) return nullptr;
    // Re-parse with the checkpointed symbol table as seed: interning order
    // is engine state (it fixes every downstream id), and the rendered text
    // alone does not reproduce it.
    auto program = ParseProgram(data->program_text, data->symbols);
    if (!program.ok()) return nullptr;
    auto db = Build(std::move(*program), options);  // validated by the parse
    if (!db.ok()) return nullptr;
    if ((*db)->Fingerprint() != data->fingerprint) return nullptr;
    // A checkpoint written at an older snapshot version is compared at the
    // current one: its stored snapshot is loaded and re-serialized first.
    auto stored = Snapshot::Upgrade(data->snapshot_bytes);
    if (!stored.ok() || Snapshot::Serialize(*(*db)->spec()) != *stored) {
      return nullptr;
    }
    c->db = std::move(*db);
    return c->db.get();
  };

  // Pair each log — current first, then the previous generation — with the
  // newest base matching the fingerprint stamped in its header.
  std::unique_ptr<FunctionalDatabase> db;
  WalScanResult scan;
  bool have_log = false;
  bool fallback_log = false;
  // Set when the current log exists but pairs with no base (its checkpoint
  // is torn, the caller's program diverged, or it is a foreign file).
  // Falling back one generation is still allowed — that is exactly the
  // torn-checkpoint contract — but recovery refuses to invent a state and
  // clobber such a log when the fallback yields nothing either.
  bool current_log_unmatched = false;
  for (int li = 0; li < 2 && db == nullptr; ++li) {
    const std::string log_path = li == 0 ? wal_path : wal_path + ".prev";
    auto scanned = DeltaWal::Scan(log_path);
    if (!scanned.ok()) {
      if (scanned.status().code() == StatusCode::kNotFound) continue;
      // The file exists but its header is unreadable. A create torn by a
      // crash leaves fewer than kHeaderSize bytes and no records, so it is
      // safe to start over; anything longer is not ours to clobber.
      auto bytes = DeltaWal::ReadFile(log_path);
      if (bytes.ok() && bytes->size() >= DeltaWal::kHeaderSize && li == 0) {
        return Status::FailedPrecondition(StrFormat(
            "wal: '%s' is not a readable delta log (%s); refusing to "
            "overwrite it",
            log_path.c_str(), scanned.status().message().c_str()));
      }
      continue;
    }
    for (Candidate& base : bases) {
      FunctionalDatabase* built = build_base(&base);
      if (built != nullptr &&
          built->Fingerprint() == scanned->base_fingerprint) {
        db = std::move(base.db);
        scan = std::move(*scanned);
        have_log = true;
        fallback_log = li == 1;
        rec.checkpoint_loaded = !base.path.empty();
        break;
      }
    }
    if (db == nullptr && li == 0) current_log_unmatched = true;
  }

  if (db == nullptr) {
    // No log pairs with any base. Recover from the newest valid base alone
    // (a crash between checkpoint-install renames can leave exactly that),
    // or start fresh from the program — but never by discarding a live log
    // whose history we simply cannot anchor.
    if (current_log_unmatched) {
      return Status::FailedPrecondition(StrFormat(
          "wal: log at '%s' does not anchor to this program or any "
          "checkpoint generation; refusing to recover from it",
          wal_path.c_str()));
    }
    for (Candidate& base : bases) {
      if (build_base(&base) != nullptr) {
        db = std::move(base.db);
        rec.checkpoint_loaded = !base.path.empty();
        break;
      }
    }
    if (db == nullptr) {
      if (!program_error.ok()) return program_error;
      return Status::FailedPrecondition(StrFormat(
          "wal: no recoverable state at '%s'", wal_path.c_str()));
    }
    rec.created = !rec.checkpoint_loaded;
  }

  // Replay surviving batches through ApplyDeltaText — the same code that
  // applied them live — checking the fingerprint chain record by record.
  for (const WalRecord& r : scan.records) {
    auto applied = db->ApplyDeltaText(r.payload, options);
    if (!applied.ok()) {
      return Status::Internal(StrFormat(
          "wal: replay of record %llu failed: %s",
          static_cast<unsigned long long>(r.seq),
          applied.status().ToString().c_str()));
    }
    if (db->Fingerprint() != r.fingerprint) {
      return Status::Internal(StrFormat(
          "wal: fingerprint chain broken at record %llu (engine %016llx, "
          "logged %016llx)",
          static_cast<unsigned long long>(r.seq),
          static_cast<unsigned long long>(db->Fingerprint()),
          static_cast<unsigned long long>(r.fingerprint)));
    }
    ++rec.replayed_batches;
    rec.replayed_bytes += r.payload.size();
  }
  rec.truncated_bytes = scan.truncated_bytes;
  rec.used_fallback = fallback_log;
  RELSPEC_COUNTER_ADD("wal.replayed_records", rec.replayed_batches);
  RELSPEC_COUNTER_ADD("wal.replayed_bytes", rec.replayed_bytes);

  db->wal_path_ = wal_path;
  db->durable_options_ = durable;
  if (have_log && !fallback_log) {
    // Normal case: keep appending to the current log (truncating its torn
    // tail first).
    RELSPEC_ASSIGN_OR_RETURN(
        db->wal_, DeltaWal::OpenForAppend(wal_path, scan, durable.wal));
  } else if (!have_log && !rec.checkpoint_loaded) {
    // Brand-new state: no log, no checkpoint.
    RELSPEC_ASSIGN_OR_RETURN(
        db->wal_,
        DeltaWal::Create(wal_path, db->Fingerprint(), durable.wal));
  } else {
    // The current generation is gone or torn (we recovered via `.prev` or a
    // bare checkpoint). Rebuild it by installing a fresh (checkpoint, log)
    // pair — without rotating, so the generation we just recovered from
    // stays intact until the install lands.
    RELSPEC_RETURN_NOT_OK(db->CheckpointImpl(/*rotate_prev=*/false));
  }
  if (recovery != nullptr) *recovery = rec;
  return db;
}

StatusOr<DeltaStats> FunctionalDatabase::LogAndApplyDeltas(
    std::string_view delta_text, const EngineOptions& options) {
  if (!durable()) {
    return Status::FailedPrecondition(
        "LogAndApplyDeltas: engine was not opened via OpenDurable");
  }
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "LogAndApplyDeltas: no armed log (a failed checkpoint detached it); "
        "reopen via OpenDurable");
  }
  if (wal_->broken()) {
    return Status::FailedPrecondition(
        "LogAndApplyDeltas: log is poisoned by an earlier write/fsync "
        "failure; Checkpoint() or a fresh OpenDurable re-arms it");
  }
  RELSPEC_ASSIGN_OR_RETURN(DeltaStats stats,
                           ApplyDeltaText(delta_text, options));
  // Applied in memory; now make it durable. Append returning OK under
  // fsync=always is the acknowledgment the crash tests hold us to. Even an
  // all-noop batch is logged, so that OK means "logged" for every batch; it
  // changed nothing, and its replay is a noop again.
  RELSPEC_RETURN_NOT_OK(wal_->Append(Fingerprint(), delta_text));
  ++batches_since_checkpoint_;
  if (durable_options_.checkpoint_every > 0 &&
      batches_since_checkpoint_ >= durable_options_.checkpoint_every) {
    RELSPEC_RETURN_NOT_OK(Checkpoint());
  }
  return stats;
}

Status FunctionalDatabase::Checkpoint() {
  return CheckpointImpl(/*rotate_prev=*/true);
}

Status FunctionalDatabase::CheckpointImpl(bool rotate_prev) {
  if (!durable()) {
    return Status::FailedPrecondition(
        "Checkpoint: engine was not opened via OpenDurable");
  }
  RELSPEC_PHASE("wal.checkpoint");
  RELSPEC_TRACE_SPAN("wal", "wal.checkpoint");
  const std::string ckpt_path = wal_path_ + ".ckpt";
  const bool durable_sync = durable_options_.wal.fsync != FsyncMode::kOff;

  // Anchor: the current state as (program text, spec snapshot, fingerprint).
  std::string ckpt_bytes =
      SerializeCheckpoint(Fingerprint(), original_.symbols, ToString(original_),
                          Snapshot::Serialize(*spec_));

  // Stage the new generation as .tmp files, durably, before any rename.
  RELSPEC_FAILPOINT("wal.checkpoint.write_ckpt");
  RELSPEC_RETURN_NOT_OK(DeltaWal::WriteFileDurable(
      ckpt_path + ".tmp", ckpt_bytes, durable_sync, durable_options_.wal));
  RELSPEC_FAILPOINT("wal.checkpoint.write_newlog");
  RELSPEC_RETURN_NOT_OK(DeltaWal::WriteFileDurable(
      wal_path_ + ".tmp", DeltaWal::SerializeHeader(Fingerprint()),
      durable_sync, durable_options_.wal));

  // Close the live log so everything it acknowledged is on disk before the
  // file changes name. A poisoned log closes as-is: its durable prefix is
  // still valid, and the checkpoint carries the in-memory state anyway.
  if (wal_ != nullptr) {
    Status closed = wal_->Close();
    if (!closed.ok() && !wal_->broken()) return closed;
    wal_.reset();
  }

  // Rotate, then install. Every intermediate crash state leaves at least
  // one (base, log) pair — or a bare checkpoint — that recovery accepts;
  // tests/crash_recovery_test.cc kills at each of these boundaries.
  if (rotate_prev) {
    RELSPEC_FAILPOINT("wal.checkpoint.rename_ckpt_prev");
    RELSPEC_RETURN_NOT_OK(DeltaWal::RenameFile(ckpt_path, ckpt_path + ".prev",
                                               /*ignore_missing=*/true));
    RELSPEC_FAILPOINT("wal.checkpoint.rename_wal_prev");
    RELSPEC_RETURN_NOT_OK(DeltaWal::RenameFile(wal_path_, wal_path_ + ".prev",
                                               /*ignore_missing=*/true));
  }
  RELSPEC_FAILPOINT("wal.checkpoint.rename_ckpt");
  RELSPEC_RETURN_NOT_OK(DeltaWal::RenameFile(ckpt_path + ".tmp", ckpt_path));
  RELSPEC_FAILPOINT("wal.checkpoint.rename_wal");
  RELSPEC_RETURN_NOT_OK(DeltaWal::RenameFile(wal_path_ + ".tmp", wal_path_));
  if (durable_sync) DeltaWal::SyncDir(wal_path_);
  RELSPEC_FAILPOINT("wal.checkpoint.done");

  // Re-arm appending on the fresh log.
  WalScanResult fresh;
  fresh.base_fingerprint = Fingerprint();
  fresh.valid_bytes = DeltaWal::kHeaderSize;
  RELSPEC_ASSIGN_OR_RETURN(
      wal_, DeltaWal::OpenForAppend(wal_path_, fresh, durable_options_.wal));
  batches_since_checkpoint_ = 0;
  RELSPEC_COUNTER("wal.checkpoints");
  return Status::OK();
}

uint64_t FunctionalDatabase::Fingerprint() const {
  if (fingerprint_ != 0) return fingerprint_;
  // FNV-1a over the normal-form rendering, then mixed with the
  // result-affecting build parameters. The rendering fixes fact/rule order,
  // so two databases answer queries identically iff the inputs match.
  uint64_t h = 1469598103934665603ull;
  auto eat = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (char c : ToString(original_)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  const LabelGraph& graph = spec_->graph();
  eat(static_cast<uint64_t>(graph.trunk_depth()));
  eat(static_cast<uint64_t>(graph.frontier_depth()));
  eat(graph.num_clusters());
  eat(truncated() ? 1 : 0);
  if (h == 0) h = 1;  // 0 is the "not computed" sentinel
  fingerprint_ = h;
  return h;
}

Status FunctionalDatabase::Verify() const {
  if (truncated()) {
    return Status::FailedPrecondition(
        "database is truncated (partial fixpoint): the quotient-model "
        "certificate only applies to a converged fixpoint; breach: " +
        breach().ToString());
  }
  return VerifyQuotientModel(*spec_, ground_);
}

}  // namespace relspec
