// Workload `answers`: one thread answers queries with AnswerQuery and
// expands each answer with QueryAnswer::Enumerate at the CLI defaults
// (term depth 6, at most 64 answers), over robot-style programs whose
// subtrees are mostly answer-free and lists-style programs where every
// subtree holds answers. Every emitted answer is confirmed by HoldsFact.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/programs.h"
#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/parser/parser.h"

namespace perfbench {
namespace {

using relspec::Status;
using relspec::StatusOr;

// The relspec_cli defaults for printing query answers.
constexpr int kEnumerateDepth = 6;
constexpr size_t kEnumerateCount = 64;
constexpr double kWindowSeconds = 0.3;

struct Case {
  std::string kind;
  std::unique_ptr<relspec::FunctionalDatabase> db;
  std::vector<relspec::Query> queries;
};

std::vector<Case> MakeSetup(const Options& options, Report* report) {
  std::vector<Case> cases;
  for (AnswerCase& a : AnswerPassCases(options.seed, options.smoke)) {
    report->Attempt();
    Case c;
    c.kind = a.kind;
    auto db = relspec::FunctionalDatabase::FromSource(a.source);
    if (!db.ok()) {
      report->Fail(a.kind + ": " + db.status().ToString());
      continue;
    }
    c.db = std::move(db).value();
    for (const std::string& text : a.queries) {
      auto q = relspec::ParseQuery(text, c.db->mutable_program());
      if (!q.ok() || q->atoms.size() != 1) {
        report->Fail("query " + text + " did not parse to one atom");
        continue;
      }
      c.queries.push_back(std::move(q).value());
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

/// The ground fact an answer to the single-atom query `q` stands for.
relspec::Atom AnswerFact(const relspec::Query& q,
                         const relspec::ConcreteAnswer& answer) {
  relspec::Atom fact = q.atoms[0];
  relspec::VarId fvar = relspec::kInvalidId;
  if (fact.fterm.has_value() && fact.fterm->has_var) {
    fvar = fact.fterm->var;
    // The variable's value (the answer's pure symbols over 0), with the
    // query's own applications above it: ext(s, c) becomes ext(path, c).
    relspec::FuncTerm term;
    if (answer.term.has_value()) {
      for (relspec::FuncId f : answer.term->symbols()) {
        term.apps.push_back(relspec::FuncApply{f, {}});
      }
    }
    term.apps.insert(term.apps.end(), fact.fterm->apps.begin(),
                     fact.fterm->apps.end());
    fact.fterm = term;
  }
  size_t column = 0;
  for (relspec::VarId v : q.answer_vars) {
    if (v == fvar) continue;
    for (relspec::NfArg& arg : fact.args) {
      if (arg.IsVariable() && arg.id == v && column < answer.tuple.size()) {
        arg = relspec::NfArg::Constant(answer.tuple[column]);
      }
    }
    ++column;
  }
  return fact;
}

/// True when HoldsFact confirms every answer.
bool AnswersConfirmed(Case* c, const relspec::Query& q,
                      const std::vector<relspec::ConcreteAnswer>& answers) {
  for (const relspec::ConcreteAnswer& answer : answers) {
    StatusOr<bool> holds = c->db->HoldsFact(AnswerFact(q, answer));
    if (!holds.ok() || !*holds) return false;
  }
  return true;
}

struct PassTimes {
  double wall_ms = 0;
  double answer_ms = 0;
  double enumerate_ms = 0;
  uint64_t calls = 0;
  uint64_t emitted = 0;
};

/// One pass over every case and query; records each query's answer plus
/// enumeration time (µs) in `window`. Answers are checked after the pass,
/// outside the measured time: one attempt and at most one failure per query.
PassTimes Pass(std::vector<Case>* cases, uint64_t pass, Window* window,
               Report* report) {
  PassTimes t;
  std::vector<std::vector<relspec::ConcreteAnswer>> results;
  const auto start = Clock::now();
  uint64_t id = pass * 1000;
  for (Case& c : *cases) {
    for (const relspec::Query& q : c.queries) {
      ++id;
      report->Attempt();
      ++t.calls;
      StatusOr<relspec::QueryAnswer> answer = Status::Internal("not run");
      const auto a0 = Clock::now();
      {
        RELSPEC_TRACE_SPAN1("perfbench", "query.answer", "query", id);
        answer = relspec::AnswerQuery(c.db.get(), q);
      }
      const auto e0 = Clock::now();
      t.answer_ms += std::chrono::duration<double, std::milli>(e0 - a0).count();
      if (!answer.ok()) {
        report->Fail(c.kind + ": " + answer.status().ToString());
        results.emplace_back();
        continue;
      }
      StatusOr<std::vector<relspec::ConcreteAnswer>> rows =
          Status::Internal("not run");
      {
        RELSPEC_TRACE_SPAN1("perfbench", "query.enumerate", "query", id);
        rows = answer->Enumerate(kEnumerateDepth, kEnumerateCount);
      }
      const auto e1 = Clock::now();
      t.enumerate_ms += std::chrono::duration<double, std::milli>(e1 - e0).count();
      window->latency_us.push_back(
          std::chrono::duration<double, std::micro>(e1 - a0).count());
      window->op.push_back(t.calls - 1);
      if (!rows.ok()) {
        report->Fail(c.kind + ": " + rows.status().ToString());
        results.emplace_back();
        continue;
      }
      t.emitted += rows->size();
      results.push_back(std::move(rows).value());
    }
  }
  t.wall_ms = MsSince(start);
  size_t next = 0;
  for (Case& c : *cases) {
    for (const relspec::Query& q : c.queries) {
      if (!AnswersConfirmed(&c, q, results[next++])) {
        report->Fail(c.kind + ": an emitted answer is not confirmed by HoldsFact");
      }
    }
  }
  return t;
}

}  // namespace

int RunAnswers(const Options& options) {
  Report report;
  PrintConfigLine(options, SingleThreadPinning(), "no daemon",
                  {{"threads", "1"},
                   {"enumerate", "depth 6, at most 64 answers"}});
  const int setup_reps = options.smoke ? 1 : 9;
  std::vector<double> setup_s;
  std::vector<Case> cases;
  for (int r = 0; r < setup_reps; ++r) {
    PinToFastestCpu();
    const auto start = Clock::now();
    Report scratch;  // only the last set-up's checks count
    cases = MakeSetup(options, r + 1 == setup_reps ? &report : &scratch);
    setup_s.push_back(SecondsSince(start));
  }
  // Windows of whole passes, each at least kWindowSeconds of query time.
  std::vector<Window> windows(1);
  uint64_t pass = 0;
  const auto begin = Clock::now();
  while (windows.size() < 2 || SecondsSince(begin) < options.seconds) {
    Window& w = windows.back();
    if (w.latency_us.empty()) {
      const CpuChoice choice = PinToFastestCpu();
      w.cpu = choice.cpu;
      w.probe_us = choice.probe_us;
    }
    PassTimes t = Pass(&cases, ++pass, &w, &report);
    w.seconds += (t.answer_ms + t.enumerate_ms) / 1000;
    if (w.seconds >= kWindowSeconds) windows.emplace_back();
  }
  if (windows.back().latency_us.empty()) windows.pop_back();
  const std::vector<bool> keep = FastWindows(windows);
  const WindowSummary kept = Summarize(windows, keep);
  PrintWindowsLine(windows, keep);
  report.Add("ops_per_s", kept.ops_per_s, "1/s");
  report.Add("latency_p50_us", Quantile(kept.latency_us, 0.5), "us");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", SelfPeakRssMb(), "MB");
  report.Print();
  return 0;
}

void AnswersLayers(const Options& options, double seconds, bool named,
                   Report* report) {
  std::vector<Case> cases = MakeSetup(options, report);
  // Untraced passes alternate with traced ones, the same code with the event
  // trace and the metrics registry on. The per-call times come from the
  // untraced passes; the traced ones yield the spans, the registry counts
  // and, against the untraced ones, the tracing overhead.
  std::vector<double> untraced, traced_wall, answer_ms, enumerate_ms,
      unattributed, residue_pct, overhead_pct;
  Window untraced_ops;  // for the per-query p99
  Window traced_ops;    // unused; keeps both passes on the same path
  PassTimes last;
  relspec::MetricsSnapshot counters;
  uint64_t pass = 0;
  const auto begin = Clock::now();
  while (traced_wall.empty() || SecondsSince(begin) < seconds) {
    const PassTimes plain = Pass(&cases, ++pass, &untraced_ops, report);
    relspec::MetricsRegistry::Global().Reset();
    relspec::EnableMetrics(true);
    relspec::EnableEventTrace(true);
    last = Pass(&cases, ++pass, &traced_ops, report);
    relspec::EnableEventTrace(false);
    relspec::EnableMetrics(false);
    counters = relspec::MetricsRegistry::Global().Snapshot();
    const double rest = plain.wall_ms - plain.answer_ms - plain.enumerate_ms;
    untraced.push_back(plain.wall_ms);
    answer_ms.push_back(plain.answer_ms);
    enumerate_ms.push_back(plain.enumerate_ms);
    unattributed.push_back(rest);
    residue_pct.push_back(rest / plain.wall_ms * 100.0);
    traced_wall.push_back(last.wall_ms);
    overhead_pct.push_back((last.wall_ms / plain.wall_ms - 1) * 100.0);
  }
  const double calls = static_cast<double>(last.calls);
  report->Add("answers_pass_ms", Median(untraced), "ms");
  report->Add("answers.latency_p99_us",
              Quantile(untraced_ops.latency_us, 0.99), "us");
  // Means per untraced pass, so answer time plus enumeration time plus
  // answers.unattributed_ms add up to the mean untraced pass.
  report->Add("query.answer_us", Mean(answer_ms) * 1000 / calls, "us");
  report->Add("query.incremental_answers",
              static_cast<double>(counters.counter("query.incremental_answers")),
              "count");
  report->Add("query.recompute_answers",
              static_cast<double>(counters.counter("query.recompute_answers")),
              "count");
  report->Add("query.enumerate_ms", Mean(enumerate_ms), "ms");
  report->Add("query.answers_emitted", static_cast<double>(last.emitted),
              "count");
  report->Add("query.enumerate_us_per_answer",
              last.emitted > 0 ? Mean(enumerate_ms) * 1000 /
                                     static_cast<double>(last.emitted)
                               : 0,
              "us");
  // The unattributed time is the loop itself: result moves and clock reads.
  // answers.residue_pct is its share of the untraced pass, median over
  // passes; there is no separate pipeline call to compare the pass with.
  report->Add("answers.unattributed_ms", Mean(unattributed), "ms");
  const double residue = Median(residue_pct);
  report->Add("answers.residue_pct", residue, "%");
  report->Attempt();
  if (std::abs(residue) > kMaxResiduePct) {
    report->Fail("answers: the timed calls leave " + std::to_string(residue) +
                 "% of the pass unattributed");
  }
  report->Add("answers.traced_pass_ms", Mean(traced_wall), "ms");
  if (named) report->Add("trace.overhead_pct", Median(overhead_pct), "%");
}

}  // namespace perfbench
