#include "src/datalog/evaluator.h"

#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"

namespace relspec {
namespace datalog {
namespace {

constexpr uint32_t kUnbound = std::numeric_limits<uint32_t>::max();

// Enumerates matches of `body` against `db`, calling `on_match(bindings)`
// for each. Row visibility per atom is controlled by `row_limit(atom_index)`
// (exclusive upper row index) and `row_floor(atom_index)` (inclusive lower
// row index) to implement semi-naive deltas.
class Matcher {
 public:
  Matcher(const Database& db, const std::vector<DAtom>& body, uint32_t num_vars)
      : db_(db), body_(body) {
    bindings_.assign(num_vars, kUnbound);
    row_floor_.assign(body.size(), 0);
    row_limit_.assign(body.size(), std::numeric_limits<size_t>::max());
  }

  void SetRowFloor(size_t atom, size_t floor) { row_floor_[atom] = floor; }
  void SetRowLimit(size_t atom, size_t limit) { row_limit_[atom] = limit; }

  template <typename F>
  void Match(F&& on_match) {
    probes_ = 0;
    MatchFrom(0, on_match);
  }

  size_t probes() const { return probes_; }

 private:
  template <typename F>
  void MatchFrom(size_t i, F&& on_match) {
    if (i == body_.size()) {
      on_match(bindings_);
      return;
    }
    const DAtom& atom = body_[i];
    const Relation& rel = db_.relation(atom.pred);

    if (atom.negated) {
      // Negation as failure against the (completed) relation: all variables
      // are bound by now (validated in CheckRules + body reordering).
      Tuple key;
      key.reserve(atom.args.size());
      for (const DTerm& t : atom.args) {
        if (!t.IsVar()) {
          key.push_back(t.id);
        } else {
          RELSPEC_CHECK_NE(bindings_[t.id], kUnbound)
              << "negated atom evaluated before its variables were bound";
          key.push_back(bindings_[t.id]);
        }
      }
      ++probes_;
      if (!rel.Contains(key)) MatchFrom(i + 1, on_match);
      return;
    }

    // Split the atom's columns into bound (probe key) and free.
    std::vector<int> bound_cols;
    Tuple key;
    for (size_t c = 0; c < atom.args.size(); ++c) {
      const DTerm& t = atom.args[c];
      if (!t.IsVar()) {
        bound_cols.push_back(static_cast<int>(c));
        key.push_back(t.id);
      } else if (bindings_[t.id] != kUnbound) {
        bound_cols.push_back(static_cast<int>(c));
        key.push_back(bindings_[t.id]);
      }
    }

    auto try_row = [&](RowRef row) {
      // Bind free variables; handle repeated variables within the atom.
      std::vector<uint32_t> newly_bound;
      bool ok = true;
      for (size_t c = 0; c < atom.args.size() && ok; ++c) {
        const DTerm& t = atom.args[c];
        if (!t.IsVar()) {
          ok = row[c] == t.id;
        } else if (bindings_[t.id] == kUnbound) {
          bindings_[t.id] = row[c];
          newly_bound.push_back(t.id);
        } else {
          ok = row[c] == bindings_[t.id];
        }
      }
      if (ok) MatchFrom(i + 1, on_match);
      for (uint32_t v : newly_bound) bindings_[v] = kUnbound;
    };

    size_t floor = row_floor_[i];
    size_t limit = std::min(row_limit_[i], rel.size());
    if (bound_cols.empty()) {
      for (size_t r = floor; r < limit; ++r) {
        ++probes_;
        try_row(rel.row(r));
      }
    } else {
      for (uint32_t r : rel.Probe(bound_cols, key)) {
        if (r < floor || r >= limit) continue;
        ++probes_;
        try_row(rel.row(r));
      }
    }
  }

  const Database& db_;
  const std::vector<DAtom>& body_;
  std::vector<uint32_t> bindings_;
  std::vector<size_t> row_floor_;
  std::vector<size_t> row_limit_;
  size_t probes_ = 0;
};

Tuple InstantiateHead(const DAtom& head, const std::vector<uint32_t>& bindings) {
  Tuple out;
  out.reserve(head.args.size());
  for (const DTerm& t : head.args) {
    out.push_back(t.IsVar() ? bindings[t.id] : t.id);
  }
  return out;
}

Status CheckRules(const std::vector<DRule>& rules, const Database& db) {
  for (const DRule& rule : rules) {
    auto check_atom = [&](const DAtom& atom) -> Status {
      if (!db.IsDeclared(atom.pred)) {
        return Status::FailedPrecondition(
            StrFormat("predicate %u not declared in the database", atom.pred));
      }
      if (static_cast<int>(atom.args.size()) != db.relation(atom.pred).arity()) {
        return Status::InvalidArgument(
            StrFormat("atom arity mismatch for predicate %u", atom.pred));
      }
      return Status::OK();
    };
    RELSPEC_RETURN_NOT_OK(check_atom(rule.head));
    if (rule.head.negated) {
      return Status::InvalidArgument("rule head must not be negated");
    }
    std::unordered_set<uint32_t> positive_vars;
    for (const DAtom& a : rule.body) {
      RELSPEC_RETURN_NOT_OK(check_atom(a));
      if (a.negated) continue;
      for (const DTerm& t : a.args) {
        if (t.IsVar()) positive_vars.insert(t.id);
      }
    }
    for (const DAtom& a : rule.body) {
      if (!a.negated) continue;
      for (const DTerm& t : a.args) {
        if (t.IsVar() && positive_vars.count(t.id) == 0) {
          return Status::InvalidArgument(
              "negated atom variable does not occur in a positive body atom");
        }
      }
    }
    for (const DTerm& t : rule.head.args) {
      if (t.IsVar() && positive_vars.count(t.id) == 0) {
        return Status::InvalidArgument(
            "rule is not range-restricted: head variable absent from body");
      }
    }
  }
  return Status::OK();
}

// Moves negated atoms after the positive ones so the matcher sees every
// variable bound by the time a negated atom is checked.
std::vector<DAtom> NegatedLast(const std::vector<DAtom>& body) {
  std::vector<DAtom> out;
  out.reserve(body.size());
  for (const DAtom& a : body) {
    if (!a.negated) out.push_back(a);
  }
  for (const DAtom& a : body) {
    if (a.negated) out.push_back(a);
  }
  return out;
}

bool HasNegation(const std::vector<DRule>& rules) {
  for (const DRule& r : rules) {
    for (const DAtom& a : r.body) {
      if (a.negated) return true;
    }
  }
  return false;
}

// Per-body-atom row windows for one matching pass: atom j enumerates rows
// [floor[j], limit[j]) of its relation (limits are clamped to the relation
// size inside the Matcher).
struct PassWindows {
  std::vector<size_t> floor;
  std::vector<size_t> limit;

  explicit PassWindows(size_t atoms)
      : floor(atoms, 0), limit(atoms, std::numeric_limits<size_t>::max()) {}
};

// Runs one matching pass of `rule` under `win`, inserting instantiated
// heads into db and bumping stats at original-rule index `oi`.
void RunMatchPass(const DRule& rule, size_t oi, const PassWindows& win,
                  Database* db, EvalStats* stats, bool* changed) {
  Matcher m(*db, rule.body, rule.num_vars);
  for (size_t j = 0; j < rule.body.size(); ++j) {
    m.SetRowFloor(j, win.floor[j]);
    m.SetRowLimit(j, win.limit[j]);
  }
  m.Match([&](const std::vector<uint32_t>& bindings) {
    ++stats->rule_firings;
    ++stats->per_rule_firings[oi];
    if (db->Insert(rule.head.pred, InstantiateHead(rule.head, bindings))) {
      ++stats->tuples_derived;
      ++stats->per_rule_derived[oi];
      *changed = true;
    }
  });
}

}  // namespace

namespace {

// One stratum (or a negation-free rule set) to fixpoint. `rule_index[i]` is
// the position of `rules[i]` in the original rule list passed to Evaluate;
// per-rule stats are recorded at those positions (vectors of `total_rules`).
StatusOr<EvalStats> EvaluateStratum(const std::vector<DRule>& rules,
                                    const std::vector<size_t>& rule_index,
                                    size_t total_rules, Database* db,
                                    const EvalOptions& options) {
  EvalStats stats;
  stats.per_rule_firings.assign(total_rules, 0);
  stats.per_rule_derived.assign(total_rules, 0);

  // Predicates derivable by some rule (IDB); others never get deltas.
  std::unordered_set<PredId> idb;
  for (const DRule& r : rules) idb.insert(r.head.pred);

  // old_size[p]: #rows of p before the current iteration;
  // prev_size[p]: #rows of p before the previous iteration (delta floor).
  std::unordered_map<PredId, size_t> old_size, prev_size;
  for (PredId p : db->Predicates()) {
    old_size[p] = 0;  // first round: everything is "new"
    prev_size[p] = 0;
  }

  bool changed = true;
  while (changed) {
    changed = false;
    ++stats.iterations;
    RELSPEC_TRACE_SPAN1("datalog", "iteration", "iteration",
                        stats.iterations);
    RELSPEC_TRACE_COUNTER("datalog.tuples", db->TotalTuples());
    if (options.max_iterations > 0 && stats.iterations > options.max_iterations) {
      return Status::ResourceExhausted("evaluation iteration limit exceeded");
    }
    RELSPEC_FAILPOINT("datalog.iteration");
    if (options.governor != nullptr) {
      RELSPEC_RETURN_NOT_OK(options.governor->CheckTuples(db->TotalTuples()));
    }

    // Snapshot sizes at the start of the round.
    std::unordered_map<PredId, size_t> snapshot;
    for (PredId p : db->Predicates()) snapshot[p] = db->relation(p).size();

    for (size_t ri = 0; ri < rules.size(); ++ri) {
      const DRule& rule = rules[ri];
      const size_t oi = rule_index[ri];
      if (options.strategy == Strategy::kNaive) {
        PassWindows win(rule.body.size());
        for (size_t i = 0; i < rule.body.size(); ++i) {
          win.limit[i] = snapshot[rule.body[i].pred];
        }
        RunMatchPass(rule, oi, win, db, &stats, &changed);
      } else if (rule.body.empty()) {
        // A bodiless rule is a fact; it fires exactly once.
        if (stats.iterations == 1) {
          ++stats.rule_firings;
          ++stats.per_rule_firings[oi];
          if (db->Insert(rule.head.pred, InstantiateHead(rule.head, {}))) {
            ++stats.tuples_derived;
            ++stats.per_rule_derived[oi];
            changed = true;
          }
        }
      } else {
        // Semi-naive: one pass per body atom i with a delta, where atom i
        // ranges over its delta, atoms < i over "full" (as of the snapshot)
        // and atoms > i over "old" (before the previous round's additions).
        for (size_t i = 0; i < rule.body.size(); ++i) {
          PredId p = rule.body[i].pred;
          size_t delta_lo = idb.count(p) > 0 ? old_size[p] : 0;
          size_t delta_hi = snapshot[p];
          bool first_round = stats.iterations == 1;
          if (!first_round && delta_lo >= delta_hi) continue;
          if (!first_round && idb.count(p) == 0) continue;  // EDB: no delta
          PassWindows win(rule.body.size());
          for (size_t j = 0; j < rule.body.size(); ++j) {
            if (first_round) {
              win.limit[j] = snapshot[rule.body[j].pred];
              continue;
            }
            if (j < i) {
              win.limit[j] = snapshot[rule.body[j].pred];
            } else if (j == i) {
              win.floor[j] = delta_lo;
              win.limit[j] = delta_hi;
            } else {
              win.limit[j] = old_size[rule.body[j].pred];
            }
          }
          RunMatchPass(rule, oi, win, db, &stats, &changed);
          if (first_round) break;  // one full pass suffices in round 1
        }
      }
      if (db->TotalTuples() > options.max_tuples) {
        return Status::ResourceExhausted(
            StrFormat("evaluation exceeded max_tuples=%zu", options.max_tuples));
      }
      // Per-rule poll: bounds cancellation latency to one rule pass.
      if (options.governor != nullptr) {
        RELSPEC_RETURN_NOT_OK(
            options.governor->CheckTuples(db->TotalTuples()));
      }
    }

    for (PredId p : db->Predicates()) {
      old_size[p] = snapshot.count(p) > 0 ? snapshot[p] : 0;
    }
  }
  return stats;
}

}  // namespace

StatusOr<std::vector<std::vector<DRule>>> StratifyRules(
    const std::vector<DRule>& rules) {
  // stratum[p] via the usual constraints: head >= positive body,
  // head > negated body; unsatisfiable (cycle through negation) when a
  // stratum exceeds the number of predicates.
  std::unordered_map<PredId, size_t> stratum;
  auto level = [&](PredId p) -> size_t& { return stratum[p]; };
  size_t num_preds = 0;
  for (const DRule& r : rules) {
    level(r.head.pred);
    for (const DAtom& a : r.body) level(a.pred);
  }
  num_preds = stratum.size();

  bool changed = true;
  while (changed) {
    changed = false;
    for (const DRule& r : rules) {
      size_t& h = level(r.head.pred);
      for (const DAtom& a : r.body) {
        size_t need = level(a.pred) + (a.negated ? 1 : 0);
        if (h < need) {
          h = need;
          changed = true;
          if (h > num_preds) {
            return Status::InvalidArgument(
                "rules are not stratifiable: recursion through negation");
          }
        }
      }
    }
  }

  size_t max_stratum = 0;
  for (const auto& [p, s] : stratum) max_stratum = std::max(max_stratum, s);
  std::vector<std::vector<DRule>> out(max_stratum + 1);
  for (const DRule& r : rules) out[stratum[r.head.pred]].push_back(r);
  return out;
}

namespace {

void RecordEvalMetrics(const EvalStats& stats) {
  RELSPEC_COUNTER_ADD("datalog.iterations", stats.iterations);
  RELSPEC_COUNTER_ADD("datalog.rule_firings", stats.rule_firings);
  RELSPEC_COUNTER_ADD("datalog.tuples_derived", stats.tuples_derived);
  if (MetricsEnabled()) {
    for (size_t i = 0; i < stats.per_rule_firings.size(); ++i) {
      MetricsRegistry::Global()
          .GetCounter(StrFormat("datalog.rule[%zu].firings", i))
          ->Add(stats.per_rule_firings[i]);
      MetricsRegistry::Global()
          .GetCounter(StrFormat("datalog.rule[%zu].derived", i))
          ->Add(stats.per_rule_derived[i]);
    }
  }
}

}  // namespace

StatusOr<EvalStats> Evaluate(const std::vector<DRule>& rules, Database* db,
                             const EvalOptions& options) {
  RELSPEC_PHASE("datalog.evaluate");
  RELSPEC_RETURN_NOT_OK(CheckRules(rules, *db));
  // Normalize bodies: negated atoms last, so the matcher binds first.
  std::vector<DRule> prepared = rules;
  for (DRule& r : prepared) r.body = NegatedLast(r.body);

  if (!HasNegation(prepared)) {
    std::vector<size_t> identity(prepared.size());
    for (size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    RELSPEC_ASSIGN_OR_RETURN(
        EvalStats stats, EvaluateStratum(prepared, identity, prepared.size(),
                                         db, options));
    RecordEvalMetrics(stats);
    return stats;
  }
  RELSPEC_ASSIGN_OR_RETURN(std::vector<std::vector<DRule>> strata,
                           StratifyRules(prepared));
  // Recover each stratum rule's original index: a rule's stratum depends only
  // on its head predicate, and StratifyRules appends in input order, so
  // walking the input once in order reproduces the per-stratum sequences.
  std::unordered_map<PredId, size_t> stratum_of;
  for (size_t s = 0; s < strata.size(); ++s) {
    for (const DRule& r : strata[s]) stratum_of[r.head.pred] = s;
  }
  std::vector<std::vector<size_t>> strata_index(strata.size());
  for (size_t i = 0; i < prepared.size(); ++i) {
    strata_index[stratum_of.at(prepared[i].head.pred)].push_back(i);
  }
  EvalStats total;
  total.per_rule_firings.assign(prepared.size(), 0);
  total.per_rule_derived.assign(prepared.size(), 0);
  for (size_t s = 0; s < strata.size(); ++s) {
    if (strata[s].empty()) continue;
    RELSPEC_ASSIGN_OR_RETURN(
        EvalStats st, EvaluateStratum(strata[s], strata_index[s],
                                      prepared.size(), db, options));
    total.iterations += st.iterations;
    total.tuples_derived += st.tuples_derived;
    total.rule_firings += st.rule_firings;
    for (size_t i = 0; i < prepared.size(); ++i) {
      total.per_rule_firings[i] += st.per_rule_firings[i];
      total.per_rule_derived[i] += st.per_rule_derived[i];
    }
  }
  RecordEvalMetrics(total);
  return total;
}

std::vector<Tuple> JoinProject(const Database& db,
                               const std::vector<DAtom>& body,
                               uint32_t num_vars,
                               const std::vector<uint32_t>& projection) {
  std::vector<Tuple> out;
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<DAtom> ordered = NegatedLast(body);
  Matcher m(db, ordered, num_vars);
  m.Match([&](const std::vector<uint32_t>& bindings) {
    Tuple t;
    t.reserve(projection.size());
    for (uint32_t v : projection) t.push_back(bindings[v]);
    if (seen.insert(t).second) out.push_back(std::move(t));
  });
  return out;
}

}  // namespace datalog
}  // namespace relspec
