#include "src/core/congr.h"

#include <algorithm>
#include <unordered_map>

#include "src/base/str_util.h"
#include "src/term/path.h"

namespace relspec {

uint32_t BoundedCongrResult::TermIndex(const Path& path) const {
  for (uint32_t i = 0; i < terms.size(); ++i) {
    if (terms[i] == path) return i;
  }
  return kInvalidId;
}

bool BoundedCongrResult::Holds(const Path& path, PredId pred,
                               std::span<const ConstId> args) const {
  uint32_t t = TermIndex(path);
  if (t == kInvalidId) return false;
  datalog::Tuple tuple;
  tuple.push_back(t);
  tuple.insert(tuple.end(), args.begin(), args.end());
  return db.Contains(pred, tuple);
}

std::string CongrRulesText(const EquationalSpecification& eq) {
  const GraphSpecification& spec = eq.spec();
  const SymbolTable& symbols = spec.symbols();
  std::string out;
  out += "% CONGR: database-independent canonical form (Section 3.6)\n";
  out += "eq(x,x) :- term(x).\n";
  out += "eq(x,y) :- eq(y,x).\n";
  out += "eq(x,y) :- eq(x,z), eq(z,y).\n";
  // One congruence rule per function symbol of the spec's alphabet.
  for (FuncId fn : spec.alphabet()) {
    const char* f = symbols.function(fn).name.c_str();
    out += StrFormat("eq(x1,y1) :- eq(x,y), apply_%s(x,x1), apply_%s(y,y1).\n",
                     f, f);
  }
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    const PredicateInfo& info = symbols.predicate(p);
    if (!info.functional) continue;
    std::string zs;
    for (int i = 1; i < info.arity; ++i) zs += StrFormat(",z%d", i);
    out += StrFormat("%s(t%s) :- %s(s%s), eq(s,t).\n", info.name.c_str(),
                     zs.c_str(), info.name.c_str(), zs.c_str());
  }
  return out;
}

StatusOr<BoundedCongrResult> EvaluateCongrBounded(
    const EquationalSpecification& eq, int bound,
    datalog::Strategy strategy) {
  BoundedCongrResult out;
  const GraphSpecification& spec = eq.spec();
  const SymbolTable& symbols = spec.symbols();
  const std::vector<FuncId>& alphabet = spec.alphabet();

  // Enumerate the bounded universe.
  std::unordered_map<Path, uint32_t, PathHash> term_index;
  {
    std::vector<Path> layer = {Path::Zero()};
    out.terms.push_back(Path::Zero());
    for (int d = 1; d <= bound; ++d) {
      std::vector<Path> next;
      for (const Path& p : layer) {
        for (FuncId f : alphabet) {
          next.push_back(p.Extend(f));
          out.terms.push_back(next.back());
        }
      }
      layer = std::move(next);
      if (out.terms.size() > 2'000'000) {
        return Status::ResourceExhausted("CONGR universe too large");
      }
    }
    for (uint32_t i = 0; i < out.terms.size(); ++i) {
      term_index.emplace(out.terms[i], i);
    }
  }

  // Predicate ids: user predicates keep their ids; synthetic ones follow.
  PredId next_pred = static_cast<PredId>(symbols.num_predicates());
  out.term_pred = next_pred++;
  out.eq_pred = next_pred++;
  for (FuncId f : alphabet) out.apply_preds.emplace_back(f, next_pred++);

  datalog::Database& db = out.db;
  RELSPEC_RETURN_NOT_OK(db.Declare(out.term_pred, 1));
  RELSPEC_RETURN_NOT_OK(db.Declare(out.eq_pred, 2));
  for (const auto& [f, pred] : out.apply_preds) {
    RELSPEC_RETURN_NOT_OK(db.Declare(pred, 2));
  }
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    RELSPEC_RETURN_NOT_OK(db.Declare(p, symbols.predicate(p).arity));
  }

  // EDB: the universe and the successor structure.
  for (uint32_t i = 0; i < out.terms.size(); ++i) {
    db.Insert(out.term_pred, {i});
    if (out.terms[i].depth() < bound) {
      for (size_t a = 0; a < alphabet.size(); ++a) {
        uint32_t child = term_index.at(out.terms[i].Extend(alphabet[a]));
        db.Insert(out.apply_preds[a].second, {i, child});
      }
    }
  }

  // C = B ∪ R.
  for (uint32_t ci = 0; ci < spec.num_clusters(); ++ci) {
    auto it = term_index.find(spec.graph().Representative(ci));
    if (it == term_index.end()) {
      return Status::InvalidArgument(
          "CONGR bound does not cover a representative term of B");
    }
    uint32_t rep = it->second;
    const auto& atoms = spec.atom_dictionary();
    spec.graph().label(ci).ForEach([&](size_t b) {
      const AtomRef sa = atoms[static_cast<AtomIdx>(b)];
      datalog::Tuple tuple;
      tuple.push_back(rep);
      tuple.insert(tuple.end(), sa.args.begin(), sa.args.end());
      db.Insert(sa.pred, tuple);
    });
  }
  for (const auto& [pred, args] : spec.globals()) {
    db.Insert(pred, datalog::Tuple(args.begin(), args.end()));
  }
  for (const Equation& e : eq.equations()) {
    const auto [t1, t2] = eq.EquationPaths(e);
    auto i1 = term_index.find(t1);
    auto i2 = term_index.find(t2);
    if (i1 == term_index.end() || i2 == term_index.end()) {
      return Status::InvalidArgument(
          "CONGR bound does not cover an equation of R");
    }
    db.Insert(out.eq_pred, {i1->second, i2->second});
  }

  // CONGR rules in engine IR.
  using datalog::DAtom;
  using datalog::DRule;
  using datalog::DTerm;
  std::vector<DRule> rules;
  {  // eq(x,x) <- term(x).
    DRule r;
    r.num_vars = 1;
    r.head = DAtom{out.eq_pred, {DTerm::Var(0), DTerm::Var(0)}};
    r.body = {DAtom{out.term_pred, {DTerm::Var(0)}}};
    rules.push_back(r);
  }
  {  // eq(x,y) <- eq(y,x).
    DRule r;
    r.num_vars = 2;
    r.head = DAtom{out.eq_pred, {DTerm::Var(0), DTerm::Var(1)}};
    r.body = {DAtom{out.eq_pred, {DTerm::Var(1), DTerm::Var(0)}}};
    rules.push_back(r);
  }
  {  // eq(x,y) <- eq(x,z), eq(z,y).
    DRule r;
    r.num_vars = 3;
    r.head = DAtom{out.eq_pred, {DTerm::Var(0), DTerm::Var(1)}};
    r.body = {DAtom{out.eq_pred, {DTerm::Var(0), DTerm::Var(2)}},
              DAtom{out.eq_pred, {DTerm::Var(2), DTerm::Var(1)}}};
    rules.push_back(r);
  }
  for (const auto& [f, apply] : out.apply_preds) {
    // eq(x1,y1) <- eq(x,y), apply_f(x,x1), apply_f(y,y1).
    DRule r;
    r.num_vars = 4;
    r.head = DAtom{out.eq_pred, {DTerm::Var(2), DTerm::Var(3)}};
    r.body = {DAtom{out.eq_pred, {DTerm::Var(0), DTerm::Var(1)}},
              DAtom{apply, {DTerm::Var(0), DTerm::Var(2)}},
              DAtom{apply, {DTerm::Var(1), DTerm::Var(3)}}};
    rules.push_back(r);
  }
  for (PredId p = 0; p < symbols.num_predicates(); ++p) {
    const PredicateInfo& info = symbols.predicate(p);
    if (!info.functional) continue;
    // P(t,z...) <- P(s,z...), eq(s,t).
    DRule r;
    r.num_vars = 2 + static_cast<uint32_t>(info.arity - 1);
    DAtom head{p, {DTerm::Var(1)}};
    DAtom body{p, {DTerm::Var(0)}};
    for (int i = 1; i < info.arity; ++i) {
      head.args.push_back(DTerm::Var(static_cast<uint32_t>(1 + i)));
      body.args.push_back(DTerm::Var(static_cast<uint32_t>(1 + i)));
    }
    r.head = head;
    r.body = {body, DAtom{out.eq_pred, {DTerm::Var(0), DTerm::Var(1)}}};
    rules.push_back(r);
  }

  datalog::EvalOptions opts;
  opts.strategy = strategy;
  RELSPEC_ASSIGN_OR_RETURN(out.stats, datalog::Evaluate(rules, &db, opts));
  return out;
}

}  // namespace relspec
