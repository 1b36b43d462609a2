// FunctionalDatabase: the public facade over the whole pipeline.
//
//   source text --parse--> Program --validate/normalize/purify--> Program'
//     --ground--> GroundProgram --fixpoint--> Labeling --Algorithm Q-->
//     LabelGraph --> GraphSpecification (held, shared) --> EquationalSpec
//
// After a build the engine holds the program, the ground program and its
// (B, F) as an immutable shared GraphSpecification, and nothing else the
// fixpoint derived: the Labeling lives only inside the build. Every
// membership and query reads the one spec — the same reads a spec loaded
// from a snapshot answers — and an answer keeps the spec it was computed
// from alive across later updates. The (B, R) form and the quotient-model
// certificate are built from the spec too.
//
// Typical use:
//
//   auto db = FunctionalDatabase::FromSource(R"(
//     Meets(0, Tony).
//     Next(Tony, Jan).  Next(Jan, Tony).
//     Meets(t, x), Next(x, y) -> Meets(t+1, y).
//   )");
//   db->HoldsFactText("Meets(4, Tony)");   // -> true
//   auto spec = db->spec();                // finite (B, F), shared

#ifndef RELSPEC_CORE_ENGINE_H_
#define RELSPEC_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/ast/ast.h"
#include "src/base/status.h"
#include "src/core/analysis.h"
#include "src/core/equational_spec.h"
#include "src/core/fixpoint.h"
#include "src/core/graph_spec.h"
#include "src/core/ground.h"
#include "src/core/label_graph.h"
#include "src/core/mixed_to_pure.h"
#include "src/core/normalize.h"
#include "src/core/wal.h"
#include "src/parser/parser.h"

namespace relspec {

struct EngineOptions {
  GroundOptions ground;
  FixpointOptions fixpoint;
  LabelGraphOptions graph;

  /// Optional resource governor applied to every phase. Overrides the
  /// per-phase governor fields in `fixpoint` and `graph` when set.
  ResourceGovernor* governor = nullptr;
  /// Graceful degradation for the whole pipeline: sets allow_partial on the
  /// fixpoint and Algorithm Q, so a resource breach yields a truncated (but
  /// sound and queryable) database instead of an error.
  bool allow_partial = false;
};

/// One base-fact edit (paper Section 5): insert (`+`) or delete (`-`) a
/// ground fact, given as an Atom over the database's *original* symbols.
struct FactDelta {
  bool insert = true;
  Atom fact;
};

/// What one ApplyDeltas/ApplyDeltaText batch did.
struct DeltaStats {
  /// Facts actually added to / removed from the program (a second insert of
  /// a present fact, or a delete of an absent one, is a noop).
  size_t inserted = 0;
  size_t deleted = 0;
  size_t noops = 0;
  /// True for every effective batch: each one rebuilds the pipeline.
  bool rebuilt = false;
  /// Always 0. Kept, with `rebuilt`, because the serving protocol's update
  /// result carries both fields.
  size_t deleted_bits = 0;
};

/// Durability knobs for OpenDurable (docs/DURABILITY.md).
struct DurableOptions {
  WalOptions wal;
  /// Auto-checkpoint (snapshot + log rotation) after this many logged
  /// batches; 0 = only when Checkpoint() is called explicitly.
  uint64_t checkpoint_every = 0;
};

/// What OpenDurable's recovery did, for operators and tests.
struct RecoveryStats {
  /// No usable log existed; a fresh one was created at the requested path.
  bool created = false;
  /// The current (checkpoint, log) pair was missing or torn; recovery fell
  /// back one generation to the `.prev` pair left by the last rotation.
  bool used_fallback = false;
  /// The engine was rebuilt from a checkpoint rather than the program
  /// source (and the checkpoint's embedded snapshot matched byte for byte).
  bool checkpoint_loaded = false;
  uint64_t replayed_batches = 0;
  uint64_t replayed_bytes = 0;
  /// Torn/corrupt tail bytes physically truncated from the log.
  uint64_t truncated_bytes = 0;
};

/// A source file parsed, and so validated, by
/// FunctionalDatabase::ParseSource: its program and its queries. Only
/// ParseSource makes one, so FromParsed builds its program without checking
/// it again.
class ParsedSource {
 public:
  const Program& program() const { return parsed_.program; }
  /// The source's queries, in source order.
  const std::vector<Query>& queries() const { return parsed_.queries; }

 private:
  friend class FunctionalDatabase;
  ParsedSource() = default;

  ParseResult parsed_;
};

/// A fully materialized functional deductive database with a finitely
/// represented least fixpoint. Movable, not copyable.
class FunctionalDatabase {
 public:
  /// Parses and builds. The source may not contain queries. The parser
  /// validates the program; the build does not check it again.
  static StatusOr<std::unique_ptr<FunctionalDatabase>> FromSource(
      std::string_view source, const EngineOptions& options = {});
  /// Parses a source file that may contain queries; the parser validates
  /// its program. For a caller that wants the queries as well as the build.
  static StatusOr<ParsedSource> ParseSource(std::string_view source);
  /// Builds the program of a ParseSource result, which is not validated
  /// again.
  static StatusOr<std::unique_ptr<FunctionalDatabase>> FromParsed(
      ParsedSource parsed, const EngineOptions& options = {});
  /// Validates and builds an already-constructed program.
  static StatusOr<std::unique_ptr<FunctionalDatabase>> FromProgram(
      Program program, const EngineOptions& options = {});

  /// Opens a durable engine: builds the newest recoverable state anchored at
  /// `wal_path` and arms a write-ahead log so LogAndApplyDeltas survives a
  /// crash (docs/DURABILITY.md).
  ///
  /// Recovery prefers the current (checkpoint, log) pair and falls back one
  /// generation (`.prev`) if the current pair is torn; a log is paired with
  /// whichever base (checkpoint, previous checkpoint, or `program_source`)
  /// matches the base fingerprint stamped in its header. The log's torn
  /// tail is physically truncated, surviving batches replay through
  /// ApplyDeltaText — the same code that applied them live — and the engine
  /// fingerprint is checked against every record's stamp, so recovery
  /// converges on a byte-identical engine or fails loudly. When no log
  /// exists yet, a fresh one is created from the built program. A log whose
  /// chain matches none of the candidate bases (e.g. `program_source`
  /// changed) is never clobbered: FailedPrecondition.
  static StatusOr<std::unique_ptr<FunctionalDatabase>> OpenDurable(
      std::string_view program_source, const std::string& wal_path,
      const DurableOptions& durable = {}, const EngineOptions& options = {},
      RecoveryStats* recovery = nullptr);

  /// The program as given (before normalization and purification).
  const Program& original_program() const { return original_; }
  /// The transformed (normal, pure) program the engine actually runs.
  /// Queries parse against its symbols (ParseQuery), which no read writes.
  const Program& program() const { return program_; }
  /// &program(), under the name the perfbench harness calls.
  const Program* mutable_program() const { return &program_; }

  /// The Section 2.5 parameters of program(), computed on each call.
  ProgramInfo info() const { return Analyze(program_); }
  const NormalizeStats& normalize_stats() const { return normalize_stats_; }
  const MixedToPureStats& purify_stats() const { return purify_stats_; }
  /// The ground program the spec was built from; Verify and --explain
  /// read it.
  const GroundProgram& ground() const { return ground_; }
  /// The (B, F) graph specification (Section 3.4) built with the engine.
  /// Every membership and query reads it; an effective delta batch replaces
  /// it with a new one and leaves this one unchanged, so a holder of the
  /// pointer keeps reading the state it took.
  const std::shared_ptr<const GraphSpecification>& spec() const {
    return spec_;
  }
  const LabelGraph& label_graph() const { return spec_->graph(); }

  /// Membership of a ground fact given as an Atom over the original
  /// predicates: spec()->HoldsFact(fact).
  StatusOr<bool> HoldsFact(const Atom& fact) const;
  /// Convenience: "Meets(4, Tony)" — parsed read-only against this
  /// database and answered by spec()->HoldsFact.
  StatusOr<bool> HoldsFactText(std::string_view text) const;

  /// A copy of spec().
  StatusOr<GraphSpecification> BuildGraphSpec() const;
  /// Builds the (B, R) equational specification (Section 3.5) over spec(),
  /// which it shares: it outlives this database and its updates.
  StatusOr<EquationalSpecification> BuildEquationalSpec() const;

  /// Applies a batch of base-fact deltas in order (docs/INCREMENTAL.md):
  /// edits the original program's facts, returns early when every edit is a
  /// noop, and otherwise rebuilds through the same sequence FromProgram
  /// runs. After the call, `FromProgram(original_program())` yields a
  /// byte-identical database.
  ///
  /// An all-noop batch leaves the database (and its Fingerprint) untouched;
  /// any effective batch invalidates the fingerprint, so stale QueryCache
  /// entries miss. Every error — validation, an injected fault, a resource
  /// breach without allow_partial — leaves the database unchanged (strong
  /// guarantee), because the rebuild commits only once it has succeeded.
  /// With allow_partial a breach commits a truncated-but-sound database,
  /// like the build pipeline does.
  ///
  /// Delta atoms must be ground and use this database's original symbols
  /// (predicates, constants, functions); facts mentioning symbols unknown to
  /// the program can only come in through ApplyDeltaText, which interns them.
  ///
  /// Only a batch writes the symbol table; reads never do. A Query parsed
  /// before a batch stays valid after it: the ids it took from the table
  /// keep their meaning, and its own names (Query::local) still match
  /// nothing, even if the batch adds a symbol of that name. Re-parse it to
  /// see such a symbol.
  StatusOr<DeltaStats> ApplyDeltas(const std::vector<FactDelta>& deltas,
                                   const EngineOptions& options = {});

  /// Parses and applies a delta file: one edit per line, `+ Fact(args).` or
  /// `- Fact(args).`, with `#` comments and blank lines ignored. Facts may
  /// mention new constants but not new predicates. Line numbers are reported
  /// in errors; like ApplyDeltas, any error leaves the database unchanged.
  StatusOr<DeltaStats> ApplyDeltaText(std::string_view text,
                                      const EngineOptions& options = {});

  /// ApplyDeltaText + durability: applies the batch in memory, then appends
  /// it to the WAL under the configured fsync policy. OK means *applied and
  /// logged* — under FsyncMode::kAlways it is an acknowledgment that the
  /// batch survives any crash from here on. Even an all-noop batch is
  /// logged, so that OK means the same for every batch; it changes no
  /// engine state (its parse interns only into a copy that is dropped), and
  /// replaying it is a noop again. If the append
  /// or fsync fails the batch stays applied in memory but the log is
  /// poisoned: every later call fails, and the honest move is to discard
  /// this engine and OpenDurable again. FailedPrecondition when the engine
  /// was not opened durable.
  StatusOr<DeltaStats> LogAndApplyDeltas(std::string_view delta_text,
                                         const EngineOptions& options = {});

  /// Anchors the current state durably and rotates the log: writes a
  /// checkpoint (program text + spec snapshot + fingerprint) and a fresh
  /// empty log as `.tmp` files, then atomically renames the old pair to
  /// `.prev` and the new pair into place. A crash at any step leaves at
  /// least one recoverable generation (the crash matrix in
  /// tests/crash_recovery_test.cc walks every boundary). Also the repair
  /// path after a poisoned log: a successful Checkpoint re-arms logging.
  Status Checkpoint();

  /// True when this engine was opened via OpenDurable.
  bool durable() const { return !wal_path_.empty(); }
  /// The armed log (null when not durable or after Checkpoint failed
  /// mid-rotation).
  const DeltaWal* wal() const { return wal_.get(); }

  /// Checks the quotient-model certificate (Proposition 3.2) on spec()
  /// against ground(): the served finite structure is a model of Z and D,
  /// hence equals LFP(Z, D). FailedPrecondition on a truncated database — a
  /// partial fixpoint is a sound under-approximation, not a model.
  Status Verify() const;

  /// True when a resource breach truncated the build (only possible with
  /// EngineOptions::allow_partial): answers are a sound
  /// under-approximation of LFP(Z, D). A truncated fixpoint truncates the
  /// graph with its breach, so the spec records every truncation.
  bool truncated() const { return spec_->truncated(); }
  /// The breach that truncated the build; OK unless truncated().
  const Status& breach() const { return spec_->breach(); }

  /// A stable fingerprint of this database's answer-relevant state: the
  /// original program rendered in normal form plus the result-affecting
  /// build parameters (trunk/frontier depths, truncation). QueryCache keys
  /// on it so entries from a different database never alias. Lazy; O(1)
  /// after the first call.
  uint64_t Fingerprint() const;

 private:
  FunctionalDatabase() = default;

  /// The build behind FromSource, FromParsed and FromProgram. `program`
  /// must already be valid (ValidateProgram): each way in validates it
  /// once, where it enters.
  static StatusOr<std::unique_ptr<FunctionalDatabase>> Build(
      Program program, const EngineOptions& options);

  /// Shared tail of ApplyDeltas/ApplyDeltaText: `next` is the edited
  /// original-form program with `stats` counting the edits already applied
  /// to it. Returns early on an all-noop batch; otherwise builds a fresh
  /// engine from `next` and, only if that succeeds, moves its pipeline
  /// members (symbol table included) into *this and resets the
  /// fingerprint. `next` must be valid: its base was, and every fact a
  /// batch inserts is checked where it enters.
  StatusOr<DeltaStats> ApplyEditedProgram(Program next, DeltaStats stats,
                                          const EngineOptions& options);

  /// Checkpoint body. With `rotate_prev` the old (checkpoint, log) pair is
  /// renamed to `.prev` before the new pair is installed; without it the new
  /// pair is installed in place — used when recovery rebuilt the current
  /// generation from `.prev`, which must survive until the install lands.
  Status CheckpointImpl(bool rotate_prev);

  Program original_;
  Program program_;
  NormalizeStats normalize_stats_;
  MixedToPureStats purify_stats_;
  GroundProgram ground_;
  std::shared_ptr<const GraphSpecification> spec_;
  mutable uint64_t fingerprint_ = 0;  // 0 = not yet computed

  // Durability state (empty/null unless opened via OpenDurable).
  std::string wal_path_;
  DurableOptions durable_options_;
  std::unique_ptr<DeltaWal> wal_;
  uint64_t batches_since_checkpoint_ = 0;
};

}  // namespace relspec

#endif  // RELSPEC_CORE_ENGINE_H_
