#include "src/parser/parser.h"

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "src/ast/printer.h"
#include "src/ast/validate.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/parser/lexer.h"

namespace relspec {
namespace {

// Maximum numeral allowed in a functional position ("Meets(100,...)"
// expands to 100 successor applications), and the most successor
// applications that all the numerals and '+n' increments of one parse (or
// of one ApplyDeltaText batch, which shares a budget across its line
// parses) may expand to together, so that the memory a parse takes is
// bounded.
constexpr long kMaxFunctionalNumeral = 1000000;

// Maximum nesting depth of a term. The syntax pass recurses once per
// nesting level (Term/Primary), so an adversarial input like f(f(f(...)))
// would otherwise overflow the stack; the guard turns it into
// InvalidArgument. The value must leave headroom under sanitizer builds,
// whose padded frames are several times larger than release frames on the
// default 8 MB stack (the ASan suite runs the deep-nesting regression
// test). Real programs nest a handful of levels; numerals like t+1000000
// parse iteratively and are not limited by this.
constexpr int kMaxTermDepth = 1000;

constexpr uint32_t kNone = UINT32_MAX;

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

// ---------- Per-parse names ----------

// What one parse knows about one distinct name (an identifier, or a
// numeral, which a plain argument lowers as a constant). Both passes key
// their state by the name's per-parse id instead of by its text.
struct Name {
  std::string_view text;  // points into the source
  bool variable = false;  // IsVariableName(text)
  // Functional inference.
  uint32_t pred_node = kNone;      // the predicate's node, once seen as one
  bool functional = false;         // the predicate's verdict
  uint32_t var_statement = kNone;  // statement `var_node` belongs to
  uint32_t var_node = kNone;
  // Lowering: ids resolved on first use.
  PredId pred = kInvalidId;
  FuncId func = kInvalidId;
  ConstId constant = kInvalidId;
  VarId var = kInvalidId;
  // How the variable is used in statement `use_statement`.
  uint32_t use_statement = kNone;
  uint8_t uses = 0;
};

enum : uint8_t { kFunctionalUse = 1, kPlainUse = 2 };

// Open-addressing map from a name's text to its per-parse id.
class NameTable {
 public:
  // Sized for `expected` names: most parses never grow it.
  explicit NameTable(size_t expected) {
    size_t slots = 64;
    while (slots < 2 * expected) slots *= 2;
    slots_.assign(slots, 0);
    names_.reserve(expected);
  }

  uint32_t Intern(std::string_view text) {
    size_t mask = slots_.size() - 1;
    for (size_t i = Hash(text) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        const uint32_t id = static_cast<uint32_t>(names_.size());
        names_.push_back(Name{text, IsVariableName(text)});
        slots_[i] = id + 1;
        if (names_.size() * 2 > slots_.size()) Grow();
        return id;
      }
      if (names_[slots_[i] - 1].text == text) return slots_[i] - 1;
    }
  }

  Name& operator[](uint32_t id) { return names_[id]; }

 private:
  static size_t Hash(std::string_view text) {
    uint64_t h = 14695981039346656037ull;  // FNV-1a
    for (char c : text) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    return static_cast<size_t>(h ^ (h >> 29));
  }

  void Grow() {
    std::vector<uint32_t> slots(slots_.size() * 2, 0);
    const size_t mask = slots.size() - 1;
    for (uint32_t id = 0; id < names_.size(); ++id) {
      size_t i = Hash(names_[id].text) & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = id + 1;
    }
    slots_ = std::move(slots);
  }

  std::vector<uint32_t> slots_;  // name id + 1; 0 is empty
  std::vector<Name> names_;
};

// ---------- Pass 1's output ----------

enum class StatementKind : uint8_t { kFact, kRule, kQuery };

// One statement as token positions. An atom list starts at `body` and runs
// while a ',' follows an atom.
struct Statement {
  StatementKind kind = StatementKind::kFact;
  int line = 0;
  uint32_t head = kNone;     // fact or rule head atom
  uint32_t body = kNone;     // first rule-body or query atom
  uint32_t atoms = 0;        // atoms in the list at `body`
  uint32_t answers = kNone;  // query: first listed answer variable
};

// A lexed and syntax-checked source: what lowering reads.
struct Source {
  // Capacities assume about eight tokens per name and four per statement.
  explicit Source(std::vector<Token> t)
      : tokens(std::move(t)), aux(tokens.size(), 0), names(tokens.size() / 8) {
    statements.reserve(tokens.size() / 4);
    parent.reserve(tokens.size() / 8);
    seeded.reserve(tokens.size() / 8);
  }

  std::vector<Token> tokens;
  // Per token: a term's or atom's name id; a '(' 's argument count.
  std::vector<uint32_t> aux;
  NameTable names;
  std::vector<Statement> statements;
  size_t facts = 0, rules = 0;
  // Functional inference as union-find over the predicates and, per
  // statement, the variables in argument 0 of an atom: a component is
  // functional iff it holds a seed.
  std::vector<uint32_t> parent;
  std::vector<uint8_t> seeded;
  std::vector<uint32_t> predicates;  // name ids, in first-appearance order

  Name& name_at(uint32_t i) { return names[aux[i]]; }

  uint32_t NewNode() {
    parent.push_back(static_cast<uint32_t>(parent.size()));
    seeded.push_back(0);
    return parent.back();
  }
  uint32_t Find(uint32_t n) {
    while (parent[n] != n) n = parent[n] = parent[parent[n]];
    return n;
  }
  void Seed(uint32_t n) { seeded[Find(n)] = 1; }
  void Link(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    parent[b] = a;
    seeded[a] |= seeded[b];
  }
};

// ---------- Pass 1: syntax, names and inference seeds ----------

// What inference needs to know of a term: whether it is a numeral or an
// application, its total '+n' increment, and the primary token at the
// bottom of its chain of first arguments (its own, when not an application).
struct TermShape {
  uint32_t base = kNone;
  bool numeral = false;
  bool apply = false;
  int64_t plus = 0;
};

// Checks the grammar (parser.h) with one walk over the tokens. It names
// every identifier it passes, records each statement's positions and each
// application's argument count, and links and seeds the inference nodes.
// Statement-level structure is iterative; terms recurse once per nesting
// level, bounded by kMaxTermDepth.
class SyntaxPass {
 public:
  explicit SyntaxPass(Source* source) : src_(*source) {}

  Status Statements() {
    while (Peek().kind != TokenKind::kEof) {
      RELSPEC_RETURN_NOT_OK(ParseStatement());
    }
    return Status::OK();
  }

  /// One term spanning the whole input.
  Status WholeTerm() {
    TermShape term;
    RELSPEC_RETURN_NOT_OK(Term(&term));
    return Expect(TokenKind::kEof);
  }

 private:
  // Past the end, the kEof token repeats.
  const Token& Peek() const { return tokens_[std::min(pos_, last_)]; }
  const Token& Next() { return tokens_[std::min(pos_++, last_)]; }
  uint32_t Pos() const { return static_cast<uint32_t>(pos_); }

  Status Expect(TokenKind kind) {
    const Token& t = Next();
    if (t.kind != kind) {
      return Status::InvalidArgument(
          StrFormat("line %d:%d: expected %s, found %s", t.line, t.column,
                    TokenKindName(kind), TokenKindName(t.kind)));
    }
    return Status::OK();
  }

  Status ParseStatement() {
    Statement stmt;
    stmt.line = Peek().line;
    ++statement_;  // variables are statement-local
    if (Peek().kind == TokenKind::kQuestion) {
      Next();
      stmt.kind = StatementKind::kQuery;
      if (Peek().kind == TokenKind::kLParen) {
        Next();
        stmt.answers = Pos();
        while (true) {
          const uint32_t at = Pos();
          const Token& t = Next();
          if (t.kind != TokenKind::kIdent) {
            return Status::InvalidArgument(
                StrFormat("line %d:%d: expected a variable in the query "
                          "answer list", t.line, t.column));
          }
          aux_[at] = src_.names.Intern(t.text);
          if (Peek().kind == TokenKind::kComma) {
            Next();
            continue;
          }
          break;
        }
        RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      }
      stmt.body = Pos();
      RELSPEC_RETURN_NOT_OK(AtomList(&stmt.atoms));
      RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kDot));
      src_.statements.push_back(stmt);
      return Status::OK();
    }

    const uint32_t first = Pos();
    uint32_t atoms = 0;
    RELSPEC_RETURN_NOT_OK(AtomList(&atoms));
    switch (Peek().kind) {
      case TokenKind::kDot:
        Next();
        if (atoms != 1) {
          return Status::InvalidArgument(StrFormat(
              "line %d: a fact must be a single atom", stmt.line));
        }
        stmt.kind = StatementKind::kFact;
        stmt.head = first;
        ++src_.facts;
        break;
      case TokenKind::kArrow:
        Next();
        stmt.head = Pos();
        RELSPEC_RETURN_NOT_OK(Atom());
        RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kDot));
        stmt.kind = StatementKind::kRule;
        stmt.body = first;
        stmt.atoms = atoms;
        ++src_.rules;
        break;
      case TokenKind::kColonDash:
        Next();
        if (atoms != 1) {
          return Status::InvalidArgument(StrFormat(
              "line %d: ':-' must be preceded by a single head atom",
              stmt.line));
        }
        stmt.body = Pos();
        RELSPEC_RETURN_NOT_OK(AtomList(&stmt.atoms));
        RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kDot));
        stmt.kind = StatementKind::kRule;
        stmt.head = first;
        ++src_.rules;
        break;
      default: {
        const Token& t = Peek();
        return Status::InvalidArgument(
            StrFormat("line %d:%d: expected '.', '->' or ':-', found %s",
                      t.line, t.column, TokenKindName(t.kind)));
      }
    }
    src_.statements.push_back(stmt);
    return Status::OK();
  }

  Status AtomList(uint32_t* count) {
    while (true) {
      RELSPEC_RETURN_NOT_OK(Atom());
      ++*count;
      if (Peek().kind != TokenKind::kComma) return Status::OK();
      Next();
    }
  }

  Status Atom() {
    const uint32_t at = Pos();
    const Token& name = Next();
    if (name.kind != TokenKind::kIdent) {
      return Status::InvalidArgument(
          StrFormat("line %d:%d: expected a predicate name, found %s",
                    name.line, name.column, TokenKindName(name.kind)));
    }
    const uint32_t pred = src_.names.Intern(name.text);
    aux_[at] = pred;
    TermShape arg0;
    uint32_t arity = 0;
    if (Peek().kind == TokenKind::kLParen) {
      const uint32_t lparen = Pos();
      Next();
      while (true) {
        TermShape arg;
        RELSPEC_RETURN_NOT_OK(Term(&arg));
        if (arity++ == 0) arg0 = arg;
        if (Peek().kind != TokenKind::kComma) break;
        Next();
      }
      RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      aux_[lparen] = arity;
    }
    ScanAtom(pred, arity, arg0);
    return Status::OK();
  }

  // An atom links its predicate and the variable in its argument 0 both
  // ways (a functional predicate makes the variable functional and vice
  // versa). Seeds: an argument 0 that is a numeral, an application or a
  // successor, and the variable at the bottom of an application chain or
  // under a successor.
  void ScanAtom(uint32_t pred, uint32_t arity, const TermShape& a0) {
    Name& p = src_.names[pred];
    if (p.pred_node == kNone) {
      p.pred_node = src_.NewNode();
      src_.predicates.push_back(pred);
    }
    if (arity == 0) return;
    if (a0.numeral || a0.apply || a0.plus > 0) src_.Seed(p.pred_node);
    if (!src_.name_at(a0.base).variable) return;
    const uint32_t v = VariableNode(aux_[a0.base]);
    if (a0.apply) {
      src_.Seed(v);
      return;
    }
    src_.Link(p.pred_node, v);
    if (a0.plus > 0) src_.Seed(v);
  }

  uint32_t VariableNode(uint32_t name) {
    Name& n = src_.names[name];
    if (n.var_statement != statement_) {
      n.var_statement = statement_;
      n.var_node = src_.NewNode();
    }
    return n.var_node;
  }

  Status Term(TermShape* shape) {
    if (term_depth_ >= kMaxTermDepth) {
      const Token& t = Peek();
      return Status::InvalidArgument(StrFormat(
          "line %d:%d: term nesting exceeds the maximum depth %d", t.line,
          t.column, kMaxTermDepth));
    }
    ++term_depth_;
    Status status = TermGuarded(shape);
    --term_depth_;
    return status;
  }

  Status TermGuarded(TermShape* shape) {
    RELSPEC_RETURN_NOT_OK(Primary(shape));
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
      shape->plus += n.value;
    }
    return Status::OK();
  }

  Status Primary(TermShape* shape) {
    const uint32_t at = Pos();
    const Token& t = Next();
    shape->base = at;
    if (t.kind != TokenKind::kIdent && t.kind != TokenKind::kInteger) {
      return Status::InvalidArgument(
          StrFormat("line %d:%d: expected a term, found %s", t.line, t.column,
                    TokenKindName(t.kind)));
    }
    // A numeral is named too: a plain argument lowers it as a constant.
    aux_[at] = src_.names.Intern(t.text);
    if (t.kind == TokenKind::kInteger) {
      shape->numeral = true;
      return Status::OK();
    }
    if (Peek().kind != TokenKind::kLParen) return Status::OK();
    const uint32_t lparen = Pos();
    Next();
    shape->apply = true;
    uint32_t arity = 0;
    while (true) {
      TermShape arg;
      RELSPEC_RETURN_NOT_OK(Term(&arg));
      if (arity++ == 0) shape->base = arg.base;
      if (Peek().kind != TokenKind::kComma) break;
      Next();
    }
    RELSPEC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
    aux_[lparen] = arity;
    return Status::OK();
  }

  Source& src_;
  const Token* const tokens_ = src_.tokens.data();
  const size_t last_ = src_.tokens.size() - 1;  // the kEof token
  uint32_t* const aux_ = src_.aux.data();
  size_t pos_ = 0;
  int term_depth_ = 0;
  uint32_t statement_ = 0;
};

// ---------- Pass 2: lowering ----------

// Lowers checked statements from their tokens into the AST, in source
// order, so names are interned in order of first appearance. Names resolve
// in one of two ways: interned into a writable table (programs, and the
// queries of a parsed source), or looked up in a read-only one, with the
// names it lacks kept as the query's own (ParseQuery; see Query). Each
// name is resolved once per parse and its id kept in its Name. Nothing
// here recurses: a functional term is walked down its chain of first
// arguments and lowered back up.
class Lowerer {
 public:
  Lowerer(Source* source, SymbolTable* symbols)
      : src_(*source), table_(*symbols), intern_(symbols) {}
  Lowerer(Source* source, const SymbolTable& symbols)
      : src_(*source), table_(symbols) {
    local_.constant_base = static_cast<ConstId>(symbols.num_constants());
    local_.function_base = static_cast<FuncId>(symbols.num_functions());
    local_.variable_base = static_cast<VarId>(symbols.num_variables());
  }

  /// Decides which predicates are functional: the syntax pass's seeds,
  /// plus predicates the table already marks functional, spread along its
  /// links.
  void InferFunctionalPredicates() {
    if (table_.num_predicates() > 0) {
      for (uint32_t pred : src_.predicates) {
        const Name& n = src_.names[pred];
        StatusOr<PredId> known = table_.FindPredicate(n.text);
        if (known.ok() && table_.predicate(*known).functional) {
          src_.Seed(n.pred_node);
        }
      }
    }
    for (uint32_t pred : src_.predicates) {
      Name& n = src_.names[pred];
      n.functional = src_.seeded[src_.Find(n.pred_node)] != 0;
    }
  }

  /// Successor applications charged to the budget: those of earlier parses
  /// that share it, then this parse's as it lowers.
  int64_t expanded() const { return expanded_; }
  void set_expanded(int64_t expanded) { expanded_ = expanded; }

  Status LowerProgram(ParseResult* result) {
    Program& program = result->program;
    program.facts.reserve(src_.facts);
    program.rules.reserve(src_.rules);
    for (const Statement& stmt : src_.statements) {
      switch (stmt.kind) {
        case StatementKind::kFact: {
          BeginStatement();
          pos_ = stmt.head;
          Atom& fact = program.facts.emplace_back();
          RELSPEC_RETURN_NOT_OK(LowerAtom(&fact));
          if (!fact.IsGround()) {
            return Status::InvalidArgument(
                StrFormat("line %d: database fact is not ground: %s",
                          stmt.line, ToString(fact, table_).c_str()));
          }
          break;
        }
        case StatementKind::kRule: {
          BeginStatement();
          Rule& rule = program.rules.emplace_back();
          RELSPEC_RETURN_NOT_OK(LowerAtoms(stmt, &rule.body));
          pos_ = stmt.head;
          RELSPEC_RETURN_NOT_OK(LowerAtom(&rule.head));
          break;
        }
        case StatementKind::kQuery: {
          RELSPEC_ASSIGN_OR_RETURN(Query q, LowerQuery(stmt));
          result->queries.push_back(std::move(q));
          break;
        }
      }
    }
    return Status::OK();
  }

  StatusOr<Query> LowerQuery(const Statement& stmt) {
    BeginStatement();
    Query query;
    RELSPEC_RETURN_NOT_OK(LowerAtoms(stmt, &query.atoms));
    if (stmt.answers != kNone) {
      for (uint32_t at = stmt.answers;; at += 2) {
        query.answer_vars.push_back(Variable(NameAt(at)));
        if (tokens_[at + 1].kind != TokenKind::kComma) break;
      }
    } else {
      // Every variable, in first-occurrence order.
      std::vector<VarId> nf;
      std::optional<VarId> fv;
      auto remember = [&](VarId v) {
        if (std::find(query.answer_vars.begin(), query.answer_vars.end(),
                      v) == query.answer_vars.end()) {
          query.answer_vars.push_back(v);
        }
      };
      for (const Atom& atom : query.atoms) {
        nf.clear();
        fv.reset();
        CollectVariables(atom, &nf, &fv);
        if (fv.has_value()) remember(*fv);
        for (VarId v : nf) remember(v);
      }
    }
    query.local = std::move(local_);
    RELSPEC_RETURN_NOT_OK(ValidateQuery(query, table_));
    return query;
  }

  /// The functional term starting at token `at`.
  Status LowerFuncTermAt(uint32_t at, FuncTerm* term) {
    BeginStatement();
    pos_ = at;
    return LowerFuncTerm(term);
  }

 private:
  const Token& Tok() const { return tokens_[pos_]; }
  Name& NameAt(uint32_t at) { return src_.names[aux_[at]]; }

  // Resets the per-statement variable-use tracking.
  void BeginStatement() { ++statement_; }

  uint8_t& UsesOf(Name& n) {
    if (n.use_statement != statement_) {
      n.use_statement = statement_;
      n.uses = 0;
    }
    return n.uses;
  }

  Status LowerAtoms(const Statement& stmt, std::vector<Atom>* out) {
    out->reserve(stmt.atoms);
    pos_ = stmt.body;
    while (true) {
      RELSPEC_RETURN_NOT_OK(LowerAtom(&out->emplace_back()));
      if (Tok().kind != TokenKind::kComma) return Status::OK();
      ++pos_;
    }
  }

  Status LowerAtom(Atom* out) {
    const Token& name_token = Tok();
    Name& name = NameAt(pos_++);
    int arity = 0;
    if (Tok().kind == TokenKind::kLParen) {
      arity = static_cast<int>(aux_[pos_++]);
    }
    RELSPEC_ASSIGN_OR_RETURN(out->pred, Predicate(name, arity));
    int first_nf = 0;
    if (name.functional) {
      if (arity == 0) {
        return Status::InvalidArgument(StrFormat(
            "line %d: functional predicate '%s' needs a functional argument",
            name_token.line, std::string(name.text).c_str()));
      }
      RELSPEC_RETURN_NOT_OK(LowerFuncTerm(&out->fterm.emplace()));
      first_nf = 1;
    }
    if (arity > first_nf) out->args.resize(arity - first_nf);
    for (int i = first_nf; i < arity; ++i) {
      if (i > 0) ++pos_;  // ','
      RELSPEC_RETURN_NOT_OK(LowerNfArg(&out->args[i - first_nf]));
    }
    if (arity > 0) ++pos_;  // ')'
    return Status::OK();
  }

  // A functional term f(g(base+i, ...)+j, ...)+k lowers bottom-up: the
  // base, its successors, then each application outward with its plain
  // arguments and successors. Symbols are interned in that order.
  Status LowerFuncTerm(FuncTerm* term) {
    chain_.clear();
    while (Tok().kind == TokenKind::kIdent &&
           tokens_[pos_ + 1].kind == TokenKind::kLParen) {
      chain_.push_back(pos_);
      pos_ += 2;
    }
    const Token& base = Tok();
    if (base.kind == TokenKind::kInteger) {
      if (base.value < 0 || base.value > kMaxFunctionalNumeral) {
        return Status::InvalidArgument(StrFormat(
            "line %d:%d: numeral %ld out of range for a functional term",
            base.line, base.column, base.value));
      }
      RELSPEC_RETURN_NOT_OK(AddSuccessors(base, base.value, term));
    } else {
      Name& name = NameAt(pos_);
      if (!name.variable) {
        return Status::InvalidArgument(StrFormat(
            "line %d:%d: '%s' appears in a functional position but is not "
            "a variable or a numeral (variables are s..z[0-9']*)",
            base.line, base.column, std::string(name.text).c_str()));
      }
      *term = FuncTerm::Var(Variable(name));
      uint8_t& uses = UsesOf(name);
      uses |= kFunctionalUse;
      if (uses & kPlainUse) return BothWays(base, name);
    }
    ++pos_;
    RELSPEC_RETURN_NOT_OK(AddIncrements(term));
    while (!chain_.empty()) {
      const uint32_t at = chain_.back();
      chain_.pop_back();
      const int arity = static_cast<int>(aux_[at + 1]);
      Name& name = NameAt(at);
      RELSPEC_ASSIGN_OR_RETURN(FuncId fn,
                               Function(name.text, arity, &name.func));
      FuncApply& app = term->apps.emplace_back(FuncApply{fn, {}});
      app.args.resize(arity - 1);
      for (int i = 1; i < arity; ++i) {
        ++pos_;  // ','
        RELSPEC_RETURN_NOT_OK(LowerNfArg(&app.args[i - 1]));
      }
      ++pos_;  // ')'
      RELSPEC_RETURN_NOT_OK(AddIncrements(term));
    }
    return Status::OK();
  }

  // Sums the '+n' increments at the cursor and moves past them.
  int64_t SkipIncrements() {
    int64_t plus = 0;
    while (Tok().kind == TokenKind::kPlus) {
      plus += tokens_[pos_ + 1].value;
      pos_ += 2;
    }
    return plus;
  }

  // Appends the successors of the '+n' increments at the cursor, which
  // reports the first '+' if they exceed the budget.
  Status AddIncrements(FuncTerm* term) {
    const Token& at = Tok();
    return AddSuccessors(at, SkipIncrements(), term);
  }

  // Appends `count` successor applications, charged to the parse's budget
  // of kMaxFunctionalNumeral; `at` is the token an overrun is reported at.
  Status AddSuccessors(const Token& at, int64_t count, FuncTerm* term) {
    if (count <= 0) return Status::OK();
    if (count > kMaxFunctionalNumeral - expanded_) {
      return Status::InvalidArgument(StrFormat(
          "line %d:%d: functional terms expand to more than %ld successor "
          "applications in one parse",
          at.line, at.column, kMaxFunctionalNumeral));
    }
    expanded_ += count;
    RELSPEC_ASSIGN_OR_RETURN(FuncId succ,
                             Function(kSuccessorName, 1, &successor_));
    term->apps.insert(term->apps.end(), static_cast<size_t>(count),
                      FuncApply{succ, {}});
    return Status::OK();
  }

  Status LowerNfArg(NfArg* out) {
    const Token& t = Tok();
    const uint32_t at = pos_++;
    const bool apply = Tok().kind == TokenKind::kLParen;
    if (apply || SkipIncrements() > 0) {
      return Status::InvalidArgument(StrFormat(
          "line %d:%d: function symbols may only occur in the functional "
          "position (argument 0 of a functional predicate)",
          t.line, t.column));
    }
    Name& name = NameAt(at);
    if (!name.variable) {
      *out = NfArg::Constant(Constant(name));
      return Status::OK();
    }
    uint8_t& uses = UsesOf(name);
    if (uses & kFunctionalUse) return BothWays(t, name);
    uses |= kPlainUse;
    *out = NfArg::Variable(Variable(name));
    return Status::OK();
  }

  static Status BothWays(const Token& t, const Name& name) {
    return Status::InvalidArgument(StrFormat(
        "line %d:%d: variable '%s' is used both functionally and "
        "non-functionally",
        t.line, t.column, std::string(name.text).c_str()));
  }

  StatusOr<PredId> Predicate(Name& name, int arity) {
    if (name.pred != kInvalidId && table_.predicate(name.pred).arity == arity) {
      return name.pred;
    }
    if (intern_ != nullptr) {
      RELSPEC_ASSIGN_OR_RETURN(
          name.pred,
          intern_->InternPredicate(name.text, arity, name.functional));
      return name.pred;
    }
    StatusOr<PredId> pred = table_.FindPredicate(name.text);
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
    return name.pred = *pred;
  }

  const FunctionInfo& FunctionAt(FuncId id) const {
    return id >= local_.function_base
               ? local_.functions[id - local_.function_base]
               : table_.function(id);
  }

  // `*cached` keeps the symbol's id once it resolved.
  StatusOr<FuncId> Function(std::string_view name, int arity, FuncId* cached) {
    if (*cached != kInvalidId && FunctionAt(*cached).arity == arity) {
      return *cached;
    }
    if (intern_ != nullptr) {
      RELSPEC_ASSIGN_OR_RETURN(*cached, intern_->InternFunction(name, arity));
      return *cached;
    }
    FuncId id;
    if (StatusOr<FuncId> found = table_.FindFunction(name); found.ok()) {
      id = *found;
    } else {
      auto& own = local_.functions;
      auto it = std::find_if(own.begin(), own.end(), [&](const FunctionInfo& f) {
        return f.name == name;
      });
      if (it == own.end()) {
        it = own.insert(own.end(), FunctionInfo{std::string(name), arity});
      }
      id = local_.function_base + static_cast<FuncId>(it - own.begin());
    }
    const FunctionInfo& info = FunctionAt(id);
    if (info.arity != arity) {
      return Status::InvalidArgument(StrFormat(
          "function symbol '%s' used with arity %d but declared with arity %d",
          std::string(name).c_str(), arity, info.arity));
    }
    return *cached = id;
  }

  ConstId Constant(Name& name) {
    if (name.constant != kInvalidId) return name.constant;
    if (intern_ != nullptr) {
      return name.constant = intern_->InternConstant(name.text);
    }
    StatusOr<ConstId> found = table_.FindConstant(name.text);
    if (found.ok()) return name.constant = *found;
    return name.constant =
               LocalId(&local_.constants, local_.constant_base, name.text);
  }

  VarId Variable(Name& name) {
    if (name.var != kInvalidId) return name.var;
    if (intern_ != nullptr) {
      return name.var = intern_->InternVariable(name.text);
    }
    return name.var =
               LocalId(&local_.variables, local_.variable_base, name.text);
  }

  static uint32_t LocalId(std::vector<std::string>* names, uint32_t base,
                          std::string_view name) {
    auto it = std::find(names->begin(), names->end(), name);
    if (it == names->end()) it = names->insert(names->end(), std::string(name));
    return base + static_cast<uint32_t>(it - names->begin());
  }

  Source& src_;
  const Token* const tokens_ = src_.tokens.data();
  const uint32_t* const aux_ = src_.aux.data();
  const SymbolTable& table_;
  SymbolTable* intern_ = nullptr;  // null: read-only, names kept in local_
  Query::LocalNames local_;
  FuncId successor_ = kInvalidId;
  /// Successor applications charged to the budget so far.
  int64_t expanded_ = 0;
  uint32_t pos_ = 0;
  uint32_t statement_ = 0;
  std::vector<uint32_t> chain_;  // LowerFuncTerm's application chain
};

// `*expanded` is the successor applications already charged to the budget;
// a successful parse adds its own.
StatusOr<ParseResult> ParseSeeded(std::string_view input, SymbolTable seed,
                                  int64_t* expanded) {
  RELSPEC_PHASE("parse");
  RELSPEC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Source source(std::move(tokens));
  RELSPEC_RETURN_NOT_OK(SyntaxPass(&source).Statements());

  ParseResult result;
  result.program.symbols = std::move(seed);
  Lowerer lowerer(&source, &result.program.symbols);
  lowerer.InferFunctionalPredicates();
  lowerer.set_expanded(*expanded);
  RELSPEC_RETURN_NOT_OK(lowerer.LowerProgram(&result));
  *expanded = lowerer.expanded();
  {
    // Source text enters here: the one validation a parsed program gets.
    RELSPEC_PHASE("validate");
    RELSPEC_RETURN_NOT_OK(ValidateProgram(result.program));
  }
  return result;
}

}  // namespace

StatusOr<ParseResult> Parse(std::string_view input) {
  int64_t expanded = 0;
  return ParseSeeded(input, SymbolTable(), &expanded);
}

StatusOr<Program> ParseProgram(std::string_view input) {
  RELSPEC_ASSIGN_OR_RETURN(ParseResult result, Parse(input));
  return std::move(result.program);
}

StatusOr<Program> ParseProgram(std::string_view input,
                               SymbolTable seed_symbols) {
  int64_t expanded = 0;
  return ParseProgram(input, std::move(seed_symbols), &expanded);
}

StatusOr<Program> ParseProgram(std::string_view input,
                               SymbolTable seed_symbols, int64_t* expanded) {
  RELSPEC_ASSIGN_OR_RETURN(
      ParseResult result,
      ParseSeeded(input, std::move(seed_symbols), expanded));
  return std::move(result.program);
}

StatusOr<Query> ParseQuery(std::string_view input,
                           const SymbolTable& symbols) {
  RELSPEC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Source source(std::move(tokens));
  RELSPEC_RETURN_NOT_OK(SyntaxPass(&source).Statements());
  if (source.statements.size() != 1 ||
      source.statements[0].kind != StatementKind::kQuery) {
    return Status::InvalidArgument("expected exactly one query statement");
  }
  Lowerer lowerer(&source, symbols);
  lowerer.InferFunctionalPredicates();
  return lowerer.LowerQuery(source.statements[0]);
}

StatusOr<FuncTerm> ParseFunctionalTerm(std::string_view input,
                                       const SymbolTable& symbols) {
  RELSPEC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Source source(std::move(tokens));
  RELSPEC_RETURN_NOT_OK(SyntaxPass(&source).WholeTerm());
  FuncTerm term;
  RELSPEC_RETURN_NOT_OK(Lowerer(&source, symbols).LowerFuncTermAt(0, &term));
  return term;
}

StatusOr<Query> ParseQuery(std::string_view input, const Program* program) {
  return ParseQuery(input, program->symbols);
}

}  // namespace relspec
