// relspec_cli: run functional deductive databases from the command line.
//
//   relspec_cli [PROGRAM.rsp] [flags]   (the program is optional with
//                                       --load-snapshot)
//
//   Queries contained in the program file ("? atoms." statements) are
//   answered automatically. The flags are listed once, in PrintHelp below
//   (relspec_cli --help).
//
//   SIGINT and SIGTERM request cooperative cancellation: the engine unwinds
//   cleanly — stats, trace, and WAL are flushed on the way out (exit code 7,
//   or a truncated result with --allow-partial).
//
//   Diagnostics go to stderr through the logger; stdout carries only the
//   requested output (and the --stats JSON when no FILE is given). Exit
//   codes: 0 success, 2 usage error, 3 I/O error, 4 parse error, 5 engine
//   error, 6 verification failure, 7 resource exhaustion / cancellation /
//   deadline.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"
#include "src/ast/printer.h"
#include "src/core/engine.h"
#include "src/core/wal.h"
#include "src/core/explain.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/core/spec_io.h"
#include "src/temporal/periodic_answers.h"
#include "src/parser/parser.h"

namespace {

using namespace relspec;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitParse = 4;
constexpr int kExitEngine = 5;
constexpr int kExitVerify = 6;
constexpr int kExitResource = 7;

int Fail(int code, const Status& status) {
  RELSPEC_LOG(kError) << status.ToString();
  return code;
}

/// Resource breaches (exhaustion, cancellation, deadline) get their own exit
/// code so callers can distinguish "the program is too big for the budget"
/// from "the engine rejected the program".
int EngineExitCode(const Status& status) {
  return status.IsResourceBreach() ? kExitResource : kExitEngine;
}

// Set by main before RunCli; the SIGINT/SIGTERM handler requests cooperative
// cancellation through it (a relaxed atomic store — async-signal-safe). Both
// signals take the same clean path: the engine unwinds, the WAL closes, and
// stats/trace flush before exit 7 — a supervisor's TERM is not data loss.
ResourceGovernor* g_governor = nullptr;
bool g_allow_partial = false;

extern "C" void HandleShutdownSignal(int) {
  if (g_governor != nullptr) g_governor->RequestCancel();
}

// A build that degraded under --allow-partial recorded its (sticky) breach
// in the spec. The reads after it get a fresh governor with the same
// budgets, so that breach does not stop them, while SIGINT/SIGTERM,
// --max-depth, --max-nodes and what is left of --deadline-ms still apply.
// Static: the signal handler reaches it through g_governor until exit.
std::optional<ResourceGovernor> g_read_governor;

void GovernReadsAfterRecordedBreach() {
  if (!g_governor->breached()) return;
  ResourceGovernor* build = g_governor;
  GovernorLimits limits = build->limits();
  if (limits.deadline_ms > 0) {
    limits.deadline_ms =
        build->status().IsDeadlineExceeded()
            ? 0
            : std::max<int64_t>(1, limits.deadline_ms - build->elapsed_ms());
  }
  g_read_governor.emplace(limits);
  g_governor = &*g_read_governor;
  // A signal that reached the build's governor still cancels the reads.
  if (build->cancel_requested()) g_governor->RequestCancel();
}

int UsageError(const std::string& message) {
  RELSPEC_LOG(kError) << message;
  return kExitUsage;
}

// The single source of truth for the flag surface. tools/run_checks.sh greps
// this output against the flag tables in README.md and docs/ to catch drift,
// so every user-facing flag must appear here.
void PrintHelp(const char* argv0) {
  printf(
      "usage: %s [PROGRAM.rsp] [flags]\n"
      "\n"
      "Queries in the program file (\"? atoms.\" statements) are answered\n"
      "automatically. Flags:\n"
      "\n"
      "  --fact \"Meets(4, Tony)\"       membership test against LFP(Z, D)\n"
      "  --query \"?(t,x) Meets(t, x).\" answer an ad-hoc query\n"
      "  --explain \"Meets(4, Tony)\"    print a derivation tree\n"
      "  --spec graph|eq               print the relational specification\n"
      "  --save-spec FILE              print the graph specification as text\n"
      "  --save-snapshot FILE          binary snapshot of the graph\n"
      "                                specification (versioned, checksummed;\n"
      "                                see docs/SNAPSHOT_FORMAT.md)\n"
      "  --load-snapshot FILE          warm start: serve --fact, --query,\n"
      "                                --periodic, --prove, --spec and\n"
      "                                --save-* from a binary snapshot,\n"
      "                                skipping ground/fixpoint/Q; with a\n"
      "                                PROGRAM positional, verify the\n"
      "                                snapshot against the built engine\n"
      "                                instead\n"
      "                                (the --apply-deltas warm-start\n"
      "                                handshake, docs/INCREMENTAL.md)\n"
      "  --apply-deltas FILE           apply \"+ Fact.\" / \"- Fact.\" deltas\n"
      "                                to the built engine (edit, then\n"
      "                                rebuild; docs/INCREMENTAL.md)\n"
      "  --wal FILE                    durable mode: open through a\n"
      "                                write-ahead log at FILE, replaying\n"
      "                                surviving batches first; deltas are\n"
      "                                logged before they are acknowledged\n"
      "                                (docs/DURABILITY.md)\n"
      "  --fsync always|batch|off      WAL durability policy (default\n"
      "                                always: an applied batch survives\n"
      "                                kill -9)\n"
      "  --checkpoint-every N          checkpoint + rotate the log after\n"
      "                                every N logged batches (default 0:\n"
      "                                never)\n"
      "  --recover                     print what recovery did (base,\n"
      "                                replayed batches, truncated tail)\n"
      "  --enumerate DEPTH             horizon for printing query answers\n"
      "                                (default 6)\n"
      "  --prove \"T1\" \"T2\"             prove two ground terms congruent\n"
      "                                (program syntax: 0, 4, f(0), ...)\n"
      "  --periodic \"OnCall(t, a)\"     the [CI88] periodic-set answer\n"
      "  --merged-frontier             footnote-3 traversal start (depth c)\n"
      "  --info                        program parameters (Section 2.5)\n"
      "  --verify                      quotient-model certificate\n"
      "  --stats[=FILE]                dump a JSON metrics snapshot on exit\n"
      "  --trace                       log per-phase begin/end lines to\n"
      "                                stderr\n"
      "  --trace-out FILE              write a Chrome trace-event JSON\n"
      "                                timeline (open in Perfetto or\n"
      "                                chrome://tracing); flushed on every\n"
      "                                exit path, including breaches\n"
      "  --deadline-ms N               wall-clock budget for the whole run\n"
      "                                (exit 7 when exceeded)\n"
      "  --max-tuples N                budget on derived DATALOG tuples\n"
      "  --max-nodes N                 budget on chi-table entries,\n"
      "                                clusters and the enumeration\n"
      "                                frontier\n"
      "  --max-depth N                 budget on term depth during\n"
      "                                enumeration\n"
      "  --allow-partial               degrade gracefully on a resource\n"
      "                                breach: emit a sound partial result\n"
      "                                marked truncated instead of failing\n"
      "  --help                        print this summary and exit\n",
      argv0);
}

StatusOr<std::string> ReadFile(const std::string& path,
                               bool binary = false) {
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void PrintAnswer(const QueryAnswer& answer, int horizon) {
  printf("answer(%s):", relspec::Join(answer.columns(), ",").c_str());
  if (answer.has_functional_answer()) {
    printf(" infinite; finite specification with %zu clusters, %zu tuples\n",
           answer.graph().num_clusters(), answer.NumSpecTuples());
  } else {
    printf(" finite\n");
  }
  auto concrete = answer.Enumerate(horizon, 64, g_governor);
  if (!concrete.ok()) {
    printf("  (enumeration stopped: %s)\n",
           concrete.status().ToString().c_str());
    return;
  }
  for (const ConcreteAnswer& a : *concrete) {
    printf("  ");
    bool first = true;
    if (a.term.has_value()) {
      printf("%s", a.term->ToString(answer.symbols()).c_str());
      first = false;
    }
    for (ConstId c : a.tuple) {
      printf("%s%s", first ? "" : ", ",
             answer.symbols().constant_name(c).c_str());
      first = false;
    }
    printf("\n");
  }
  if (answer.has_functional_answer()) {
    printf("  ... (answers up to term depth %d shown)\n", horizon);
  }
}

// Runs the CLI proper. Kept separate from main so the --stats snapshot is
// dumped on every exit path, success or failure.
int RunCli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      PrintHelp(argv[0]);
      return kExitOk;
    }
  }
  if (argc < 2) {
    return UsageError(StrFormat("usage: %s [PROGRAM.rsp] [flags]  (see --help)",
                                argv[0]));
  }

  // The PROGRAM.rsp positional is optional when the run starts from a saved
  // specification (--load-snapshot needs no program).
  std::string program_path;
  int first_flag = 1;
  if (argv[1][0] != '-') {
    program_path = argv[1];
    first_flag = 2;
  }
  std::vector<std::string> facts, queries, explains, periodics;
  std::vector<std::pair<std::string, std::string>> proofs;
  std::string spec_kind, save_spec, save_snapshot, load_snapshot;
  std::string apply_deltas;
  std::string wal_path;
  DurableOptions durable;
  bool want_recover_report = false;
  bool fsync_given = false, checkpoint_given = false;
  bool want_info = false, want_verify = false;
  int horizon = 6;
  EngineOptions options;
  for (int i = first_flag; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (flag == "--fact") {
      facts.push_back(next());
    } else if (flag == "--query") {
      queries.push_back(next());
    } else if (flag == "--explain") {
      explains.push_back(next());
    } else if (flag == "--prove") {
      std::string t1 = next();
      proofs.emplace_back(t1, next());
    } else if (flag == "--periodic") {
      periodics.push_back(next());
    } else if (flag == "--spec") {
      spec_kind = next();
    } else if (flag == "--save-spec") {
      save_spec = next();
    } else if (flag == "--save-snapshot") {
      save_snapshot = next();
    } else if (flag == "--load-snapshot") {
      load_snapshot = next();
    } else if (flag == "--apply-deltas") {
      apply_deltas = next();
    } else if (flag == "--wal") {
      wal_path = next();
    } else if (flag == "--fsync") {
      std::string value = next();
      auto mode = ParseFsyncMode(value);
      if (!mode.ok()) {
        return UsageError("--fsync expects always|batch|off, got \"" + value +
                          "\"");
      }
      durable.wal.fsync = *mode;
      fsync_given = true;
    } else if (flag == "--checkpoint-every") {
      std::string value = next();
      long long n = atoll(value.c_str());
      if (n < 0) {
        return UsageError(
            "--checkpoint-every expects a non-negative integer, got \"" +
            value + "\"");
      }
      durable.checkpoint_every = static_cast<uint64_t>(n);
      checkpoint_given = true;
    } else if (flag == "--recover") {
      want_recover_report = true;
    } else if (flag == "--enumerate") {
      horizon = atoi(next());
    } else if (flag == "--merged-frontier") {
      options.graph.merge_trunk_frontier = true;
    } else if (flag == "--info") {
      want_info = true;
    } else if (flag == "--verify") {
      want_verify = true;
    } else if (flag == "--deadline-ms" || flag == "--max-tuples" ||
               flag == "--max-nodes" || flag == "--max-depth" ||
               flag == "--trace-out") {
      next();  // value consumed; parsed in main before RunCli starts
    } else if (flag.rfind("--deadline-ms=", 0) == 0 ||
               flag.rfind("--max-tuples=", 0) == 0 ||
               flag.rfind("--max-nodes=", 0) == 0 ||
               flag.rfind("--max-depth=", 0) == 0 ||
               flag.rfind("--trace-out=", 0) == 0 ||
               flag == "--allow-partial" || flag == "--stats" ||
               flag.rfind("--stats=", 0) == 0 || flag == "--trace") {
      // Handled in main before RunCli starts.
    } else {
      return UsageError("unknown flag: " + flag);
    }
  }
  options.governor = g_governor;
  options.allow_partial = g_allow_partial;

  if (wal_path.empty() && (fsync_given || checkpoint_given ||
                           want_recover_report)) {
    return UsageError(
        "--fsync / --checkpoint-every / --recover only apply to durable "
        "mode: add --wal FILE");
  }
  if (!wal_path.empty()) {
    if (program_path.empty()) {
      return UsageError("--wal needs the PROGRAM.rsp positional (recovery "
                        "anchors generation-0 logs to the program)");
    }
    if (!load_snapshot.empty()) {
      return UsageError(
          "--wal is exclusive with --load-snapshot: the WAL's own checkpoint "
          "is the durable warm start (docs/DURABILITY.md)");
    }
  }
  // Spec-only mode: serve the reads from a binary snapshot without a
  // PROGRAM, skipping parse/ground/fixpoint/Q entirely. A saved spec has no
  // rules and no ground program, so the flags that need them are usage
  // errors; --load-snapshot *with* a PROGRAM takes the engine path below,
  // where the snapshot is verified instead of served.
  std::unique_ptr<FunctionalDatabase> db;
  std::shared_ptr<const GraphSpecification> spec;
  if (program_path.empty()) {
    if (load_snapshot.empty()) {
      return UsageError(
          "missing PROGRAM.rsp (only --load-snapshot runs without one)");
    }
    if (!explains.empty() || want_verify || want_info ||
        options.graph.merge_trunk_frontier || !apply_deltas.empty()) {
      return UsageError(
          "--explain, --verify, --info, --merged-frontier and --apply-deltas "
          "need rules: give the PROGRAM positional alongside --load-snapshot");
    }
    auto bytes = ReadFile(load_snapshot, /*binary=*/true);
    if (!bytes.ok()) return Fail(kExitIo, bytes.status());
    auto loaded = Snapshot::ParseGraphSpec(*bytes);
    if (!loaded.ok()) return Fail(kExitParse, loaded.status());
    spec = std::make_shared<const GraphSpecification>(*std::move(loaded));
    printf("loaded specification: %zu clusters, %zu tuples (no rules)\n",
           spec->num_clusters(), spec->num_slice_tuples());
  } else {
    auto source = ReadFile(program_path);
    if (!source.ok()) return Fail(kExitIo, source.status());
    auto parsed = FunctionalDatabase::ParseSource(*source);
    if (!parsed.ok()) return Fail(kExitParse, parsed.status());
    // Queries in the file join the --query texts, ahead of them: every
    // query parses against the spec's symbols, which in durable mode may
    // hold symbols the file never mentions (from replayed batches).
    std::vector<std::string> rendered;
    for (const Query& q : parsed->queries()) {
      rendered.push_back(ToString(q, parsed->program().symbols));
    }
    queries.insert(queries.begin(), rendered.begin(), rendered.end());

    // Durable mode anchors on the rendered program, not the raw file:
    // comments and "? ..." query statements then never shift the recovery
    // fingerprint, and the same bytes re-anchor the log on every run.
    RecoveryStats recovery;
    auto built =
        wal_path.empty()
            ? FunctionalDatabase::FromParsed(std::move(parsed).value(),
                                             options)
            : FunctionalDatabase::OpenDurable(ToString(parsed->program()),
                                              wal_path, durable, options,
                                              &recovery);
    if (!built.ok()) return Fail(EngineExitCode(built.status()), built.status());
    db = std::move(built).value();
    if (!wal_path.empty() && want_recover_report) {
      printf("recovery: %s base=%s replayed=%llu batches (%llu bytes) "
             "truncated_tail=%llu bytes%s\n",
             recovery.created ? "fresh log" : "recovered",
             recovery.checkpoint_loaded ? "checkpoint" : "program",
             static_cast<unsigned long long>(recovery.replayed_batches),
             static_cast<unsigned long long>(recovery.replayed_bytes),
             static_cast<unsigned long long>(recovery.truncated_bytes),
             recovery.used_fallback ? " [fell back one generation]" : "");
    }

    // Warm-start handshake: a PROGRAM + --load-snapshot run verifies the
    // snapshot is byte-identical to the engine just built from the program —
    // i.e. the snapshot really is this database's pre-delta state — before
    // any deltas are applied. A stale or foreign snapshot fails (exit 6).
    if (!load_snapshot.empty()) {
      auto bytes = ReadFile(load_snapshot, /*binary=*/true);
      if (!bytes.ok()) return Fail(kExitIo, bytes.status());
      if (Snapshot::Serialize(*db->spec()) != *bytes) {
        RELSPEC_LOG(kError) << "snapshot " << load_snapshot
                            << " does not match the engine built from "
                            << program_path << " (stale or foreign snapshot)";
        return kExitVerify;
      }
      printf("snapshot verified against %s (%zu bytes)\n",
             program_path.c_str(), bytes->size());
    }

    // Apply base-fact deltas to the built engine (edit, then rebuild).
    // Everything after this point — facts, queries, specs, --save-snapshot —
    // reflects the updated database.
    if (!apply_deltas.empty()) {
      auto text = ReadFile(apply_deltas);
      if (!text.ok()) return Fail(kExitIo, text.status());
      // Durable mode logs the batch before acknowledging it: under
      // --fsync always, this printf implies the batch survives kill -9.
      auto stats = wal_path.empty() ? db->ApplyDeltaText(*text, options)
                                    : db->LogAndApplyDeltas(*text, options);
      if (!stats.ok()) {
        return Fail(EngineExitCode(stats.status()), stats.status());
      }
      printf("deltas applied: +%zu -%zu (%zu noops)%s\n", stats->inserted,
             stats->deleted, stats->noops,
             db->truncated() ? " [truncated]" : "");
    }
    spec = db->spec();

    // What needs the rules or the ground program.
    if (want_info) {
      printf("info: %s\n", db->info().ToString().c_str());
      printf("clusters: %zu  (equivalence scope %zu)\n",
             db->label_graph().num_clusters(),
             db->label_graph().EquivalenceScope());
    }
    if (want_verify) {
      Status cert = db->Verify();
      printf("certificate: %s\n", cert.ToString().c_str());
      if (!cert.ok()) return kExitVerify;
    }
    for (const std::string& fact : explains) {
      auto q = ParseQuery("? " + fact + ".", db->program().symbols);
      if (!q.ok()) return Fail(kExitParse, q.status());
      if (q->atoms.size() != 1 || !q->atoms[0].IsGround()) {
        return UsageError("--explain expects a single ground fact");
      }
      const Atom& atom = q->atoms[0];
      std::vector<ConstId> args;
      for (const NfArg& a : atom.args) args.push_back(a.id);
      StatusOr<Derivation> d = Status::NotFound("no functional term");
      if (atom.fterm.has_value()) {
        // NotFound when the term names a symbol the engine lacks.
        auto path = spec->PathOfGroundTerm(*atom.fterm);
        if (!path.ok()) {
          d = path.status();
        } else {
          d = ExplainFact(db->ground(), *path, SliceAtom{atom.pred, args});
        }
      } else {
        d = ExplainGlobal(db->ground(), atom.pred, args);
      }
      if (!d.ok()) {
        printf("%s: %s\n", fact.c_str(), d.status().ToString().c_str());
        continue;
      }
      printf("derivation of %s (%zu steps):\n%s", fact.c_str(), d->NumSteps(),
             d->ToString(db->ground(), db->program().symbols).c_str());
    }
  }

  // The reads, from the one spec either start-up left: the engine's own, or
  // the loaded one. Facts, queries and terms parse against its symbols.
  if (spec->truncated()) {
    RELSPEC_LOG(kWarning) << "partial result (sound under-approximation): "
                          << spec->breach().ToString();
    GovernReadsAfterRecordedBreach();
  }
  const SymbolTable& symbols = spec->symbols();
  for (const std::string& fact : facts) {
    auto q = ParseQuery("? " + fact + ".", symbols);
    StatusOr<bool> holds = q.ok() ? spec->HoldsFact(*q) : q.status();
    if (!holds.ok()) return Fail(kExitParse, holds.status());
    printf("%s -> %s\n", fact.c_str(), *holds ? "true" : "false");
  }

  for (const std::string& qtext : queries) {
    auto q = ParseQuery(qtext, symbols);
    if (!q.ok()) return Fail(kExitParse, q.status());
    auto answer = AnswerQuery(spec, *q);
    if (!answer.ok()) return Fail(EngineExitCode(answer.status()), answer.status());
    PrintAnswer(*answer, horizon);
  }

  if (!proofs.empty()) {
    auto espec = BuildEquationalSpecification(spec);
    if (!espec.ok()) return Fail(EngineExitCode(espec.status()), espec.status());
    for (const auto& [t1, t2] : proofs) {
      // Terms use the program's syntax, e.g. "4", "0" or "move(0, a, b)".
      auto path_of = [&](const std::string& text) -> StatusOr<Path> {
        RELSPEC_ASSIGN_OR_RETURN(FuncTerm term,
                                 ParseFunctionalTerm(text, symbols));
        return spec->PathOfGroundTerm(term);
      };
      auto p1 = path_of(t1);
      auto p2 = path_of(t2);
      if (!p1.ok() || !p2.ok()) {
        const Status& bad = p1.ok() ? p2.status() : p1.status();
        return UsageError(StrFormat("bad --prove terms %s %s: %s", t1.c_str(),
                                    t2.c_str(), bad.ToString().c_str()));
      }
      auto proof = espec->ExplainCongruenceText(*p1, *p2);
      if (!proof.ok()) {
        printf("(%s, %s): %s\n", t1.c_str(), t2.c_str(),
               proof.status().ToString().c_str());
      } else {
        printf("proof that %s == %s in Cl(R):\n%s", t1.c_str(), t2.c_str(),
               proof->c_str());
      }
    }
  }

  for (const std::string& ptext : periodics) {
    auto q = ParseQuery("? " + ptext + ".", symbols);
    if (!q.ok()) return Fail(kExitParse, q.status());
    if (q->atoms.size() != 1 || !q->atoms[0].fterm.has_value()) {
      return UsageError("--periodic expects one functional atom");
    }
    std::vector<ConstId> args;
    for (const NfArg& a : q->atoms[0].args) {
      if (!a.IsConstant()) {
        return UsageError("--periodic arguments must be constants");
      }
      args.push_back(a.id);
    }
    auto days = PeriodicAnswers(*spec, q->atoms[0].pred, args);
    if (!days.ok()) return Fail(kExitEngine, days.status());
    printf("%s holds at times %s\n", ptext.c_str(),
           days->ToString().c_str());
  }

  if (spec_kind == "graph") {
    printf("%s", spec->ToString().c_str());
  } else if (spec_kind == "eq") {
    auto eq = BuildEquationalSpecification(spec);
    if (!eq.ok()) return Fail(EngineExitCode(eq.status()), eq.status());
    printf("%s", eq->ToString().c_str());
  }

  if (!save_spec.empty()) {
    std::ofstream out(save_spec);
    if (!out) {
      return Fail(kExitIo, Status::NotFound("cannot write " + save_spec));
    }
    out << SpecIo::Serialize(*spec);
    printf("specification saved to %s\n", save_spec.c_str());
  }

  if (!save_snapshot.empty()) {
    std::ofstream out(save_snapshot, std::ios::binary);
    if (!out) {
      return Fail(kExitIo, Status::NotFound("cannot write " + save_snapshot));
    }
    out << Snapshot::Serialize(*spec);
    printf("snapshot saved to %s\n", save_snapshot.c_str());
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  // --stats/--trace and the governor flags are pre-scanned so
  // instrumentation and the resource budget are live before any work starts
  // and the snapshot is emitted no matter how RunCli exits.
  bool want_stats = false;
  std::string stats_file;
  std::string trace_file;
  GovernorLimits limits;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value_of = [&](const char* name) -> std::string {
      std::string prefix = std::string(name) + "=";
      if (flag.rfind(prefix, 0) == 0) return flag.substr(prefix.size());
      return i + 1 < argc ? argv[++i] : "";
    };
    if (flag == "--stats") {
      want_stats = true;
    } else if (flag.rfind("--stats=", 0) == 0) {
      want_stats = true;
      stats_file = flag.substr(strlen("--stats="));
    } else if (flag == "--trace") {
      EnableTracing(true);
      if (GetLogLevel() > LogLevel::kInfo) SetLogLevel(LogLevel::kInfo);
    } else if (flag == "--trace-out" || flag.rfind("--trace-out=", 0) == 0) {
      trace_file = value_of("--trace-out");
    } else if (flag == "--deadline-ms" || flag.rfind("--deadline-ms=", 0) == 0) {
      limits.deadline_ms = atoll(value_of("--deadline-ms").c_str());
    } else if (flag == "--max-tuples" || flag.rfind("--max-tuples=", 0) == 0) {
      limits.max_tuples = strtoull(value_of("--max-tuples").c_str(), nullptr, 10);
    } else if (flag == "--max-nodes" || flag.rfind("--max-nodes=", 0) == 0) {
      limits.max_nodes = strtoull(value_of("--max-nodes").c_str(), nullptr, 10);
    } else if (flag == "--max-depth" || flag.rfind("--max-depth=", 0) == 0) {
      limits.max_depth = strtoull(value_of("--max-depth").c_str(), nullptr, 10);
    } else if (flag == "--allow-partial") {
      g_allow_partial = true;
    }
  }
  if (want_stats) EnableMetrics(true);
  if (!trace_file.empty()) {
    Tracer::Global().SetCurrentThreadName("main");
    EnableEventTrace(true);
  }
  failpoint::InitFromEnv();

  // The governor arms its deadline at construction, so it is created after
  // flag parsing and immediately before the governed run.
  ResourceGovernor governor(limits);
  g_governor = &governor;
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);

  int code;
  {
    RELSPEC_PHASE("governor");
    code = RunCli(argc, argv);
  }
  governor.RecordMetrics();
  g_governor = nullptr;

  // The trace is written before the stats snapshot so the trace.dropped
  // gauge the exporter records is included in the --stats JSON. Both files
  // are emitted on every exit path — including resource breaches (exit 7) —
  // so truncated runs stay diagnosable.
  if (!trace_file.empty()) {
    EnableEventTrace(false);
    Status written = Tracer::Global().WriteChromeJson(trace_file);
    if (!written.ok()) {
      RELSPEC_LOG(kError) << "cannot write --trace-out file " << trace_file
                          << ": " << written.ToString();
      if (code == kExitOk) code = kExitIo;
    }
  }

  if (want_stats) {
    std::string json = MetricsRegistry::Global().Snapshot().ToJson();
    if (stats_file.empty()) {
      printf("%s\n", json.c_str());
    } else {
      std::ofstream out(stats_file);
      if (!out) {
        RELSPEC_LOG(kError) << "cannot write --stats file " << stats_file;
        if (code == kExitOk) code = kExitIo;
      } else {
        out << json << "\n";
      }
    }
  }
  return code;
}
