#include "src/parser/parser.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/ast/printer.h"
#include "src/ast/validate.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/parser/lexer.h"

namespace relspec {
namespace {

// Maximum numeral allowed in a functional position ("Meets(100,...)"
// expands to 100 successor applications).
constexpr long kMaxFunctionalNumeral = 1000000;

// Maximum nesting depth of a term. ParseTerm/ParsePrimary (and later the
// Lowerer and the STerm destructor) recurse once per nesting level, so an
// adversarial input like f(f(f(...))) would otherwise overflow the stack;
// the guard turns it into InvalidArgument. The value must leave headroom
// under sanitizer builds, whose padded frames are several times larger
// than release frames on the default 8 MB stack (the ASan suite runs the
// deep-nesting regression test). Real programs nest a handful of levels;
// numerals like t+1000000 parse iteratively and are not limited by this.
constexpr int kMaxTermDepth = 1000;

// ---------- Surface representation (pass 1) ----------

struct STerm {
  enum class Kind { kIdent, kApply, kNumeral };
  Kind kind = Kind::kIdent;
  std::string name;         // kIdent / kApply
  std::vector<STerm> args;  // kApply
  long numeral = 0;         // kNumeral
  int plus = 0;             // number of '+n' successor wraps
  int line = 0, column = 0;
};

struct SAtom {
  std::string pred;
  std::vector<STerm> args;
  int line = 0, column = 0;
};

enum class StatementKind { kFact, kRule, kQuery };

struct Statement {
  StatementKind kind = StatementKind::kFact;
  std::vector<SAtom> body;                // rule body / query atoms
  SAtom head;                             // fact or rule head
  std::vector<std::string> answer_vars;   // query only
  bool explicit_answer_vars = false;
  int line = 0;
};

/// True if `name` is a variable under the paper's convention: a lowercase
/// letter from the end of the alphabet (s..z), optionally followed by digits
/// or primes.
bool IsVariableName(std::string_view name) {
  if (name.empty()) return false;
  char c = name[0];
  if (c < 's' || c > 'z') return false;
  for (size_t i = 1; i < name.size(); ++i) {
    char d = name[i];
    if (!(d >= '0' && d <= '9') && d != '\'') return false;
  }
  return true;
}

// ---------- Token-stream parser ----------

class TokenParser {
 public:
  explicit TokenParser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<std::vector<Statement>> ParseStatements() {
    std::vector<Statement> out;
    while (Peek().kind != TokenKind::kEof) {
      RELSPEC_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
      out.push_back(std::move(stmt));
    }
    return out;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  Status Expect(TokenKind kind) {
    const Token& t = Next();
    if (t.kind != kind) {
      return Status::InvalidArgument(
          StrFormat("line %d:%d: expected %s, found %s", t.line, t.column,
                    TokenKindName(kind), TokenKindName(t.kind)));
    }
    return Status::OK();
  }

  StatusOr<Statement> ParseStatement() {
    Statement stmt;
    stmt.line = Peek().line;
    if (Peek().kind == TokenKind::kQuestion) {
      Next();
      stmt.kind = StatementKind::kQuery;
      if (Peek().kind == TokenKind::kLParen) {
        Next();
        stmt.explicit_answer_vars = true;
        while (true) {
          const Token& t = Next();
          if (t.kind != TokenKind::kIdent) {
            return Status::InvalidArgument(
                StrFormat("line %d:%d: expected a variable in the query "
                          "answer list", t.line, t.column));
          }
          stmt.answer_vars.push_back(t.text);
          if (Peek().kind == TokenKind::kComma) {
            Next();
            continue;
          }
          break;
        }
        RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      }
      RELSPEC_ASSIGN_OR_RETURN(stmt.body, ParseAtomList());
      RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kDot));
      return stmt;
    }

    RELSPEC_ASSIGN_OR_RETURN(std::vector<SAtom> atoms, ParseAtomList());
    switch (Peek().kind) {
      case TokenKind::kDot:
        Next();
        if (atoms.size() != 1) {
          return Status::InvalidArgument(StrFormat(
              "line %d: a fact must be a single atom", stmt.line));
        }
        stmt.kind = StatementKind::kFact;
        stmt.head = std::move(atoms[0]);
        return stmt;
      case TokenKind::kArrow: {
        Next();
        RELSPEC_ASSIGN_OR_RETURN(SAtom head, ParseAtom());
        RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kDot));
        stmt.kind = StatementKind::kRule;
        stmt.body = std::move(atoms);
        stmt.head = std::move(head);
        return stmt;
      }
      case TokenKind::kColonDash: {
        Next();
        if (atoms.size() != 1) {
          return Status::InvalidArgument(StrFormat(
              "line %d: ':-' must be preceded by a single head atom",
              stmt.line));
        }
        RELSPEC_ASSIGN_OR_RETURN(stmt.body, ParseAtomList());
        RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kDot));
        stmt.kind = StatementKind::kRule;
        stmt.head = std::move(atoms[0]);
        return stmt;
      }
      default: {
        const Token& t = Peek();
        return Status::InvalidArgument(
            StrFormat("line %d:%d: expected '.', '->' or ':-', found %s",
                      t.line, t.column, TokenKindName(t.kind)));
      }
    }
  }

  StatusOr<std::vector<SAtom>> ParseAtomList() {
    std::vector<SAtom> out;
    while (true) {
      RELSPEC_ASSIGN_OR_RETURN(SAtom atom, ParseAtom());
      out.push_back(std::move(atom));
      if (Peek().kind == TokenKind::kComma) {
        Next();
        continue;
      }
      break;
    }
    return out;
  }

  StatusOr<SAtom> ParseAtom() {
    const Token& name = Next();
    if (name.kind != TokenKind::kIdent) {
      return Status::InvalidArgument(
          StrFormat("line %d:%d: expected a predicate name, found %s",
                    name.line, name.column, TokenKindName(name.kind)));
    }
    SAtom atom;
    atom.pred = name.text;
    atom.line = name.line;
    atom.column = name.column;
    if (Peek().kind == TokenKind::kLParen) {
      Next();
      while (true) {
        RELSPEC_ASSIGN_OR_RETURN(STerm term, ParseTerm());
        atom.args.push_back(std::move(term));
        if (Peek().kind == TokenKind::kComma) {
          Next();
          continue;
        }
        break;
      }
      RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
    }
    return atom;
  }

  StatusOr<STerm> ParseTerm() {
    if (term_depth_ >= kMaxTermDepth) {
      const Token& t = Peek();
      return Status::InvalidArgument(StrFormat(
          "line %d:%d: term nesting exceeds the maximum depth %d", t.line,
          t.column, kMaxTermDepth));
    }
    ++term_depth_;
    StatusOr<STerm> result = ParseTermGuarded();
    --term_depth_;
    return result;
  }

  StatusOr<STerm> ParseTermGuarded() {
    RELSPEC_ASSIGN_OR_RETURN(STerm term, ParsePrimary());
    while (Peek().kind == TokenKind::kPlus) {
      Next();
      const Token& n = Next();
      if (n.kind != TokenKind::kInteger) {
        return Status::InvalidArgument(StrFormat(
            "line %d:%d: expected an integer after '+'", n.line, n.column));
      }
      if (n.value < 0 || n.value > kMaxFunctionalNumeral) {
        return Status::InvalidArgument(StrFormat(
            "line %d:%d: successor increment %ld out of range", n.line,
            n.column, n.value));
      }
      term.plus += static_cast<int>(n.value);
    }
    return term;
  }

  StatusOr<STerm> ParsePrimary() {
    const Token& t = Next();
    STerm term;
    term.line = t.line;
    term.column = t.column;
    if (t.kind == TokenKind::kInteger) {
      term.kind = STerm::Kind::kNumeral;
      term.numeral = t.value;
      term.name = t.text;
      return term;
    }
    if (t.kind != TokenKind::kIdent) {
      return Status::InvalidArgument(
          StrFormat("line %d:%d: expected a term, found %s", t.line, t.column,
                    TokenKindName(t.kind)));
    }
    term.name = t.text;
    if (Peek().kind == TokenKind::kLParen) {
      Next();
      term.kind = STerm::Kind::kApply;
      while (true) {
        RELSPEC_ASSIGN_OR_RETURN(STerm arg, ParseTerm());
        term.args.push_back(std::move(arg));
        if (Peek().kind == TokenKind::kComma) {
          Next();
          continue;
        }
        break;
      }
      RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
    } else {
      term.kind = STerm::Kind::kIdent;
    }
    return term;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int term_depth_ = 0;
};

// ---------- Pass 2: functional inference + lowering ----------

// Decides which predicates are functional and lowers surface statements into
// the AST. Functionality is inferred to a fixpoint (see parser.h). Names
// resolve in one of two ways: interned into a writable table (programs, and
// the queries of a parsed source), or looked up in a read-only one, with the
// names it lacks kept as the query's own (ParseQuery; see Query).
class Lowerer {
 public:
  explicit Lowerer(SymbolTable* symbols) : table_(*symbols), intern_(symbols) {}
  explicit Lowerer(const SymbolTable& symbols) : table_(symbols) {
    local_.constant_base = static_cast<ConstId>(symbols.num_constants());
    local_.function_base = static_cast<FuncId>(symbols.num_functions());
    local_.variable_base = static_cast<VarId>(symbols.num_variables());
  }

  const SymbolTable& table() const { return table_; }

  Status InferFunctionalPredicates(const std::vector<Statement>& statements) {
    // Seed with predicates already known functional (ParseQuery case).
    for (PredId p = 0; p < table_.num_predicates(); ++p) {
      if (table_.predicate(p).functional) {
        functional_preds_.insert(table_.predicate(p).name);
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Statement& stmt : statements) {
        // Statement-local set of functional variables.
        std::set<std::string> func_vars;
        bool local_changed = true;
        while (local_changed) {
          local_changed = false;
          auto scan_atom = [&](const SAtom& atom) {
            if (atom.args.empty()) return;
            const STerm& a0 = atom.args[0];
            bool explicitly_functional =
                a0.kind == STerm::Kind::kNumeral ||
                a0.kind == STerm::Kind::kApply || a0.plus > 0;
            bool var_functional = a0.kind == STerm::Kind::kIdent &&
                                  IsVariableName(a0.name) &&
                                  func_vars.count(a0.name) > 0;
            if (explicitly_functional || var_functional) {
              if (functional_preds_.insert(atom.pred).second) changed = true;
            }
            if (functional_preds_.count(atom.pred) > 0 &&
                a0.kind == STerm::Kind::kIdent && IsVariableName(a0.name)) {
              if (func_vars.insert(a0.name).second) local_changed = true;
            }
            // The base of every function application chain is functional.
            MarkApplyBases(a0, &func_vars, &local_changed);
          };
          for (const SAtom& a : stmt.body) scan_atom(a);
          if (stmt.kind != StatementKind::kQuery) scan_atom(stmt.head);
        }
      }
    }
    return Status::OK();
  }

  StatusOr<Atom> LowerAtom(const SAtom& atom) {
    bool functional = functional_preds_.count(atom.pred) > 0;
    int arity = static_cast<int>(atom.args.size());
    RELSPEC_ASSIGN_OR_RETURN(PredId pred,
                             Predicate(atom.pred, arity, functional));
    Atom out;
    out.pred = pred;
    size_t first_nf = 0;
    if (functional) {
      if (atom.args.empty()) {
        return Status::InvalidArgument(StrFormat(
            "line %d: functional predicate '%s' needs a functional argument",
            atom.line, atom.pred.c_str()));
      }
      RELSPEC_ASSIGN_OR_RETURN(FuncTerm ft, LowerFuncTerm(atom.args[0]));
      out.fterm = std::move(ft);
      first_nf = 1;
    }
    for (size_t i = first_nf; i < atom.args.size(); ++i) {
      RELSPEC_ASSIGN_OR_RETURN(NfArg arg, LowerNfArg(atom.args[i]));
      out.args.push_back(arg);
    }
    return out;
  }

  StatusOr<FuncTerm> LowerFuncTerm(const STerm& term) {
    FuncTerm base;
    switch (term.kind) {
      case STerm::Kind::kNumeral: {
        if (term.numeral < 0 || term.numeral > kMaxFunctionalNumeral) {
          return Status::InvalidArgument(StrFormat(
              "line %d:%d: numeral %ld out of range for a functional term",
              term.line, term.column, term.numeral));
        }
        base = FuncTerm::Zero();
        if (term.numeral > 0) {
          RELSPEC_ASSIGN_OR_RETURN(FuncId succ, SuccessorSymbol());
          for (long i = 0; i < term.numeral; ++i) {
            base.apps.push_back(FuncApply{succ, {}});
          }
        }
        break;
      }
      case STerm::Kind::kIdent: {
        if (!IsVariableName(term.name)) {
          return Status::InvalidArgument(StrFormat(
              "line %d:%d: '%s' appears in a functional position but is not "
              "a variable or a numeral (variables are s..z[0-9']*)",
              term.line, term.column, term.name.c_str()));
        }
        base = FuncTerm::Var(Variable(term.name));
        func_vars_.insert(term.name);
        if (nf_vars_.count(term.name) > 0) {
          return Status::InvalidArgument(StrFormat(
              "line %d:%d: variable '%s' is used both functionally and "
              "non-functionally", term.line, term.column, term.name.c_str()));
        }
        break;
      }
      case STerm::Kind::kApply: {
        RELSPEC_ASSIGN_OR_RETURN(base, LowerFuncTerm(term.args[0]));
        int arity = static_cast<int>(term.args.size());
        RELSPEC_ASSIGN_OR_RETURN(FuncId fn, Function(term.name, arity));
        std::vector<NfArg> args;
        for (size_t i = 1; i < term.args.size(); ++i) {
          RELSPEC_ASSIGN_OR_RETURN(NfArg arg, LowerNfArg(term.args[i]));
          args.push_back(arg);
        }
        base.apps.push_back(FuncApply{fn, std::move(args)});
        break;
      }
    }
    if (term.plus > 0) {
      RELSPEC_ASSIGN_OR_RETURN(FuncId succ, SuccessorSymbol());
      for (int i = 0; i < term.plus; ++i) {
        base.apps.push_back(FuncApply{succ, {}});
      }
    }
    return base;
  }

  StatusOr<NfArg> LowerNfArg(const STerm& term) {
    if (term.kind == STerm::Kind::kApply || term.plus > 0) {
      return Status::InvalidArgument(StrFormat(
          "line %d:%d: function symbols may only occur in the functional "
          "position (argument 0 of a functional predicate)",
          term.line, term.column));
    }
    if (term.kind == STerm::Kind::kNumeral) {
      return NfArg::Constant(Constant(term.name));
    }
    if (IsVariableName(term.name)) {
      if (func_vars_.count(term.name) > 0) {
        return Status::InvalidArgument(StrFormat(
            "line %d:%d: variable '%s' is used both functionally and "
            "non-functionally", term.line, term.column, term.name.c_str()));
      }
      nf_vars_.insert(term.name);
      return NfArg::Variable(Variable(term.name));
    }
    return NfArg::Constant(Constant(term.name));
  }

  /// Resets the per-statement variable-kind tracking.
  void BeginStatement() {
    func_vars_.clear();
    nf_vars_.clear();
  }

  VarId Variable(const std::string& name) {
    if (intern_ != nullptr) return intern_->InternVariable(name);
    return LocalId(&local_.variables, local_.variable_base, name);
  }
  const std::string& VariableName(VarId v) const {
    return v >= local_.variable_base
               ? local_.variables[v - local_.variable_base]
               : table_.variable_name(v);
  }

  /// The names a read-only lowering kept for itself (none when interning).
  Query::LocalNames TakeLocalNames() { return std::move(local_); }

 private:
  StatusOr<PredId> Predicate(const std::string& name, int arity,
                             bool functional) {
    if (intern_ != nullptr) {
      return intern_->InternPredicate(name, arity, functional);
    }
    StatusOr<PredId> pred = table_.FindPredicate(name);
    if (!pred.ok()) {
      return Status::InvalidArgument(
          "query mentions a predicate that does not occur in the program");
    }
    // Functionality is checked by ValidateQuery: the table is not ours to
    // mark.
    const PredicateInfo& info = table_.predicate(*pred);
    if (info.arity != arity) {
      return Status::InvalidArgument(StrFormat(
          "predicate '%s' used with arity %d but declared with arity %d",
          info.name.c_str(), arity, info.arity));
    }
    return *pred;
  }

  StatusOr<FuncId> Function(const std::string& name, int arity) {
    if (intern_ != nullptr) return intern_->InternFunction(name, arity);
    FuncId id;
    const FunctionInfo* info;
    if (StatusOr<FuncId> found = table_.FindFunction(name); found.ok()) {
      id = *found;
      info = &table_.function(id);
    } else {
      auto& own = local_.functions;
      auto it = std::find_if(own.begin(), own.end(), [&](const FunctionInfo& f) {
        return f.name == name;
      });
      if (it == own.end()) {
        it = own.insert(own.end(), FunctionInfo{name, arity});
      }
      id = local_.function_base + static_cast<FuncId>(it - own.begin());
      info = &*it;
    }
    if (info->arity != arity) {
      return Status::InvalidArgument(StrFormat(
          "function symbol '%s' used with arity %d but declared with arity %d",
          name.c_str(), arity, info->arity));
    }
    return id;
  }

  ConstId Constant(const std::string& name) {
    if (intern_ != nullptr) return intern_->InternConstant(name);
    StatusOr<ConstId> found = table_.FindConstant(name);
    if (found.ok()) return *found;
    return LocalId(&local_.constants, local_.constant_base, name);
  }

  static uint32_t LocalId(std::vector<std::string>* names, uint32_t base,
                          const std::string& name) {
    auto it = std::find(names->begin(), names->end(), name);
    if (it == names->end()) it = names->insert(names->end(), name);
    return base + static_cast<uint32_t>(it - names->begin());
  }

  StatusOr<FuncId> SuccessorSymbol() {
    return Function(std::string(kSuccessorName), 1);
  }

  static void MarkApplyBases(const STerm& term, std::set<std::string>* func_vars,
                             bool* changed) {
    if (term.kind != STerm::Kind::kApply) {
      if (term.plus > 0 && term.kind == STerm::Kind::kIdent &&
          IsVariableName(term.name)) {
        if (func_vars->insert(term.name).second) *changed = true;
      }
      return;
    }
    const STerm* base = &term;
    while (base->kind == STerm::Kind::kApply) base = &base->args[0];
    if (base->kind == STerm::Kind::kIdent && IsVariableName(base->name)) {
      if (func_vars->insert(base->name).second) *changed = true;
    }
  }

  const SymbolTable& table_;
  SymbolTable* intern_ = nullptr;  // null: read-only, names kept in local_
  Query::LocalNames local_;
  std::set<std::string> functional_preds_;
  // Per-statement variable kind tracking (reset by BeginStatement).
  std::set<std::string> func_vars_;
  std::set<std::string> nf_vars_;
};

StatusOr<Query> LowerQuery(Lowerer* lowerer, const Statement& stmt) {
  lowerer->BeginStatement();
  Query query;
  std::vector<std::string> seen_vars;  // first-occurrence order
  for (const SAtom& satom : stmt.body) {
    RELSPEC_ASSIGN_OR_RETURN(Atom atom, lowerer->LowerAtom(satom));
    std::vector<VarId> nf;
    std::optional<VarId> fv;
    CollectVariables(atom, &nf, &fv);
    auto remember = [&](VarId v) {
      const std::string& name = lowerer->VariableName(v);
      if (std::find(seen_vars.begin(), seen_vars.end(), name) ==
          seen_vars.end()) {
        seen_vars.push_back(name);
      }
    };
    if (fv.has_value()) remember(*fv);
    for (VarId v : nf) remember(v);
    query.atoms.push_back(std::move(atom));
  }
  const std::vector<std::string>& answer_names =
      stmt.explicit_answer_vars ? stmt.answer_vars : seen_vars;
  for (const std::string& name : answer_names) {
    query.answer_vars.push_back(lowerer->Variable(name));
  }
  query.local = lowerer->TakeLocalNames();
  RELSPEC_RETURN_NOT_OK(ValidateQuery(query, lowerer->table()));
  return query;
}

}  // namespace

namespace {

StatusOr<ParseResult> ParseSeeded(std::string_view input, SymbolTable seed) {
  RELSPEC_PHASE("parse");
  RELSPEC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  TokenParser tp(std::move(tokens));
  RELSPEC_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                           tp.ParseStatements());

  ParseResult result;
  result.program.symbols = std::move(seed);
  Lowerer lowerer(&result.program.symbols);
  RELSPEC_RETURN_NOT_OK(lowerer.InferFunctionalPredicates(statements));
  for (const Statement& stmt : statements) {
    switch (stmt.kind) {
      case StatementKind::kFact: {
        lowerer.BeginStatement();
        RELSPEC_ASSIGN_OR_RETURN(Atom fact, lowerer.LowerAtom(stmt.head));
        if (!fact.IsGround()) {
          return Status::InvalidArgument(StrFormat(
              "line %d: database fact is not ground: %s", stmt.line,
              ToString(fact, result.program.symbols).c_str()));
        }
        result.program.facts.push_back(std::move(fact));
        break;
      }
      case StatementKind::kRule: {
        lowerer.BeginStatement();
        Rule rule;
        for (const SAtom& a : stmt.body) {
          RELSPEC_ASSIGN_OR_RETURN(Atom atom, lowerer.LowerAtom(a));
          rule.body.push_back(std::move(atom));
        }
        RELSPEC_ASSIGN_OR_RETURN(rule.head, lowerer.LowerAtom(stmt.head));
        result.program.rules.push_back(std::move(rule));
        break;
      }
      case StatementKind::kQuery: {
        RELSPEC_ASSIGN_OR_RETURN(Query q, LowerQuery(&lowerer, stmt));
        result.queries.push_back(std::move(q));
        break;
      }
    }
  }
  RELSPEC_RETURN_NOT_OK(ValidateProgram(result.program));
  return result;
}

}  // namespace

StatusOr<ParseResult> Parse(std::string_view input) {
  return ParseSeeded(input, SymbolTable());
}

StatusOr<Program> ParseProgram(std::string_view input) {
  RELSPEC_ASSIGN_OR_RETURN(ParseResult result, Parse(input));
  return std::move(result.program);
}

StatusOr<Program> ParseProgram(std::string_view input,
                               SymbolTable seed_symbols) {
  RELSPEC_ASSIGN_OR_RETURN(ParseResult result,
                           ParseSeeded(input, std::move(seed_symbols)));
  return std::move(result.program);
}

StatusOr<Query> ParseQuery(std::string_view input,
                           const SymbolTable& symbols) {
  RELSPEC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  TokenParser tp(std::move(tokens));
  RELSPEC_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                           tp.ParseStatements());
  if (statements.size() != 1 || statements[0].kind != StatementKind::kQuery) {
    return Status::InvalidArgument("expected exactly one query statement");
  }
  Lowerer lowerer(symbols);
  RELSPEC_RETURN_NOT_OK(lowerer.InferFunctionalPredicates(statements));
  return LowerQuery(&lowerer, statements[0]);
}

StatusOr<Query> ParseQuery(std::string_view input, const Program* program) {
  return ParseQuery(input, program->symbols);
}

}  // namespace relspec
