// The test-local reference for AnswerQuery: the general method of Section 5.
// The query becomes a rule, its atoms -> $oracle(answer variables), added to
// the original program; the extended program is rebuilt from scratch and its
// $oracle facts are the answer. ExpectAnswerMatchesOracle compares an
// AnswerQuery result against it on membership over every term up to a depth
// and on the rendered Enumerate output, and holds a spec loaded from a
// snapshot to the same answer (ExpectLoadedSpecAnswersAlike).

#ifndef RELSPEC_TESTS_QUERY_ORACLE_H_
#define RELSPEC_TESTS_QUERY_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ast/printer.h"
#include "src/core/engine.h"
#include "src/core/query.h"
#include "src/core/snapshot.h"
#include "src/parser/parser.h"
#include "src/serve/protocol.h"
#include "tests/random_program.h"
#include "tests/replay_fixpoint.h"

namespace relspec {
namespace testutil {

using Tuples = std::vector<std::vector<ConstId>>;

struct OracleAnswer {
  std::unique_ptr<FunctionalDatabase> db;  // the rebuilt, extended program
  ReplayedFixpoint fixpoint;               // db's fixpoint, read per path
  PredId pred = kInvalidId;
  bool functional = false;

  /// The answer tuples at `path` (functional answers), sorted.
  Tuples At(const Path& path) {
    Tuples out;
    fixpoint.labeling.LabelOf(path).ForEach([&](size_t b) {
      const AtomRef sa = db->ground().atom(static_cast<AtomIdx>(b));
      if (sa.pred == pred) out.emplace_back(sa.args.begin(), sa.args.end());
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The answer tuples of a finite answer, sorted.
  Tuples Finite() {
    Tuples out;
    const GroundProgram& ground = db->ground();
    for (CtxIdx ci = 0; ci < ground.num_ctx(); ++ci) {
      const CtxProp prop = ground.ctx_prop(ci);
      if (prop.kind == CtxProp::Kind::kGlobal && prop.pred == pred &&
          fixpoint.labeling.ctx().Test(ci)) {
        out.emplace_back(prop.args.begin(), prop.args.end());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

/// `atom` of `query` over `symbols` alone: the query's own names (every
/// variable, and the constants and function symbols the table lacked) are
/// interned into it.
inline Atom InternQueryNames(const Query& query, Atom atom,
                             SymbolTable* symbols) {
  auto lower = [&](NfArg* a) {
    if (a->IsVariable()) {
      a->id = symbols->InternVariable(query.VariableName(a->id, *symbols));
    } else if (a->id >= query.local.constant_base) {
      a->id = symbols->InternConstant(query.ConstantName(a->id, *symbols));
    }
  };
  for (NfArg& a : atom.args) lower(&a);
  if (atom.fterm.has_value()) {
    if (atom.fterm->has_var) {
      atom.fterm->var = symbols->InternVariable(
          query.VariableName(atom.fterm->var, *symbols));
    }
    for (FuncApply& app : atom.fterm->apps) {
      for (NfArg& a : app.args) lower(&a);
      if (app.fn >= query.local.function_base) {
        const FunctionInfo& fn = query.Function(app.fn, *symbols);
        app.fn = *symbols->InternFunction(fn.name, fn.arity);
      }
    }
  }
  return atom;
}

/// Answers `query` by adding a QUERY rule to db's original program and
/// rebuilding. The query must have been parsed against db's program.
inline StatusOr<OracleAnswer> RecomputeOracle(const FunctionalDatabase& db,
                                              const Query& query) {
  Program extended = db.original_program();
  // The query was parsed against the transformed symbol table; share it so
  // predicate and constant ids line up, and intern the query's own names.
  extended.symbols = db.program().symbols;
  Query lowered;
  for (const Atom& a : query.atoms) {
    lowered.atoms.push_back(InternQueryNames(query, a, &extended.symbols));
  }
  for (VarId v : query.answer_vars) {
    const std::string& name = query.VariableName(v, extended.symbols);
    lowered.answer_vars.push_back(extended.symbols.InternVariable(name));
  }
  std::optional<VarId> func_var;
  for (const Atom& a : lowered.atoms) {
    if (a.fterm.has_value() && a.fterm->has_var) func_var = a.fterm->var;
  }
  OracleAnswer out;
  out.functional = func_var.has_value() &&
                   std::find(lowered.answer_vars.begin(),
                             lowered.answer_vars.end(),
                             *func_var) != lowered.answer_vars.end();
  Rule rule;
  rule.body = lowered.atoms;
  RELSPEC_ASSIGN_OR_RETURN(
      rule.head.pred,
      extended.symbols.InternPredicate(
          "$oracle", static_cast<int>(lowered.answer_vars.size()),
          out.functional));
  if (out.functional) rule.head.fterm = FuncTerm::Var(*func_var);
  for (VarId v : lowered.answer_vars) {
    if (out.functional && v == *func_var) continue;
    rule.head.args.push_back(NfArg::Variable(v));
  }
  extended.rules.push_back(std::move(rule));
  RELSPEC_ASSIGN_OR_RETURN(out.db,
                           FunctionalDatabase::FromProgram(std::move(extended)));
  RELSPEC_ASSIGN_OR_RETURN(out.fixpoint, ReplayFixpoint(*out.db));
  RELSPEC_ASSIGN_OR_RETURN(out.pred,
                           out.db->program().symbols.FindPredicate("$oracle"));
  return out;
}

/// One answer as text: the term's word (or "-"), then the constant names.
inline std::string RenderAnswer(const SymbolTable& symbols,
                                const std::optional<Path>& term,
                                const std::vector<ConstId>& tuple) {
  std::string s = term.has_value() ? term->ToWord(symbols) : "-";
  s += "|";
  for (ConstId c : tuple) s += symbols.constant_name(c) + ",";
  return s;
}

/// `query`, parsed against db's program, asked of db's spec and of that spec
/// saved as a snapshot and loaded back. The query is printed and parsed
/// again against the loaded symbols, since a snapshot keeps no variable
/// names. Both must give the same Enumerate rows, ToString and reply text.
inline void ExpectLoadedSpecAnswersAlike(const FunctionalDatabase& db,
                                         const Query& query,
                                         int enumerate_depth = 5) {
  StatusOr<QueryAnswer> ans = AnswerQuery(&db, query);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  StatusOr<GraphSpecification> loaded =
      Snapshot::ParseGraphSpec(Snapshot::Serialize(*db.spec()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto spec = std::make_shared<const GraphSpecification>(*std::move(loaded));
  const std::string text = ToString(query, db.program().symbols);
  StatusOr<Query> reparsed = ParseQuery(text, spec->symbols());
  ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status().ToString();
  StatusOr<QueryAnswer> from_loaded = AnswerQuery(spec, *reparsed);
  ASSERT_TRUE(from_loaded.ok()) << from_loaded.status().ToString();

  auto rows = ans->Enumerate(enumerate_depth, 100000);
  auto loaded_rows = from_loaded->Enumerate(enumerate_depth, 100000);
  ASSERT_TRUE(rows.ok() && loaded_rows.ok());
  EXPECT_EQ(*rows, *loaded_rows) << text;
  EXPECT_EQ(ans->ToString(), from_loaded->ToString()) << text;
  EXPECT_EQ(serve::RenderAnswerText(*ans, -1),
            serve::RenderAnswerText(*from_loaded, -1))
      << text;
}

/// AnswerQuery(db, query) against the rebuild oracle: the same tuples at
/// every term of the oracle's alphabet up to `contains_depth` (Contains),
/// and the same rendered Enumerate(enumerate_depth, all) output, in order.
/// A snapshot-loaded spec must answer alike (ExpectLoadedSpecAnswersAlike).
inline void ExpectAnswerMatchesOracle(FunctionalDatabase* db,
                                      const Query& query,
                                      const std::string& label,
                                      int contains_depth = 5,
                                      int enumerate_depth = 6) {
  SCOPED_TRACE(label);
  ExpectLoadedSpecAnswersAlike(*db, query, enumerate_depth);
  StatusOr<QueryAnswer> ans = AnswerQuery(db, query);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  StatusOr<OracleAnswer> oracle = RecomputeOracle(*db, query);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(ans->has_functional_answer(), oracle->functional);
  const SymbolTable& symbols = ans->symbols();
  auto got_list = ans->Enumerate(enumerate_depth, SIZE_MAX);
  ASSERT_TRUE(got_list.ok()) << got_list.status().ToString();
  std::vector<std::string> got, want;
  for (const ConcreteAnswer& a : *got_list) {
    got.push_back(RenderAnswer(symbols, a.term, a.tuple));
  }
  if (!oracle->functional) {
    for (const auto& t : oracle->Finite()) {
      want.push_back(RenderAnswer(symbols, std::nullopt, t));
    }
    EXPECT_EQ(got, want);
    return;
  }
  for (const Path& p : UniverseUpTo(db->ground(), enumerate_depth)) {
    for (const auto& t : oracle->At(p)) {
      want.push_back(RenderAnswer(symbols, p, t));
    }
  }
  EXPECT_EQ(got, want);
  // Membership over the oracle's alphabet, which also holds the symbols the
  // query mentions but the engine never saw (named in the oracle's table).
  const SymbolTable& oracle_symbols = oracle->db->program().symbols;
  for (const Path& p : UniverseUpTo(oracle->db->ground(), contains_depth)) {
    const Tuples expected = oracle->At(p);
    for (const auto& t : expected) {
      StatusOr<bool> in = ans->Contains(p, t);
      ASSERT_TRUE(in.ok()) << in.status().ToString();
      EXPECT_TRUE(*in) << RenderAnswer(oracle_symbols, p, t);
    }
    const uint32_t c = ans->graph().ClusterOf(p);
    const size_t stored =
        c == kInvalidId ? 0 : ans->tuples_per_cluster()[c].size();
    EXPECT_EQ(stored, expected.size()) << p.ToWord(oracle_symbols);
  }
}

}  // namespace testutil
}  // namespace relspec

#endif  // RELSPEC_TESTS_QUERY_ORACLE_H_
