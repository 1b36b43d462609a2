#include "src/core/query.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/ast/printer.h"
#include "src/ast/validate.h"
#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"
#include "src/core/mixed_to_pure.h"
#include "src/datalog/evaluator.h"

namespace relspec {

namespace {

// The functional variable of a query, if any.
std::optional<VarId> FunctionalVarOf(const Query& query) {
  for (const Atom& a : query.atoms) {
    if (a.fterm.has_value() && a.fterm->has_var) return a.fterm->var;
  }
  return std::nullopt;
}

std::vector<std::string> ColumnNames(const Query& query,
                                     const SymbolTable& symbols) {
  std::vector<std::string> out;
  out.reserve(query.answer_vars.size());
  for (VarId v : query.answer_vars) {
    out.push_back(query.VariableName(v, symbols));
  }
  return out;
}

}  // namespace

bool ConcreteAnswer::operator<(const ConcreteAnswer& o) const {
  if (term.has_value() != o.term.has_value()) return !term.has_value();
  if (term.has_value() && !(*term == *o.term)) return *term < *o.term;
  return tuple < o.tuple;
}

StatusOr<bool> QueryAnswer::Contains(const std::optional<Path>& term,
                                     const std::vector<ConstId>& tuple) const {
  if (functional_ != term.has_value()) {
    return Status::InvalidArgument(
        functional_ ? "this answer has a functional column; provide a term"
                    : "this answer has no functional column");
  }
  if (!functional_) {
    return std::find(flat_.begin(), flat_.end(), tuple) != flat_.end();
  }
  uint32_t cluster = graph().ClusterOf(*term);
  if (cluster == kInvalidId) return false;
  const auto& tuples = per_cluster_[cluster];
  return std::find(tuples.begin(), tuples.end(), tuple) != tuples.end();
}

void QueryAnswer::ComputeAnswerDistance() {
  const size_t n = per_cluster_.size();
  std::vector<std::vector<uint32_t>> predecessors(n);
  for (uint32_t c = 0; c < n; ++c) {
    for (uint32_t succ : graph().successors(c)) {
      predecessors[succ].push_back(c);
    }
  }
  answer_distance_.assign(n, kNoAnswer);
  std::vector<uint32_t> queue;
  for (uint32_t c = 0; c < n; ++c) {
    if (!per_cluster_[c].empty()) {
      answer_distance_[c] = 0;
      queue.push_back(c);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t c = queue[head];
    for (uint32_t pred : predecessors[c]) {
      if (answer_distance_[pred] != kNoAnswer) continue;
      answer_distance_[pred] = answer_distance_[c] + 1;
      queue.push_back(pred);
    }
  }
}

StatusOr<std::vector<ConcreteAnswer>> QueryAnswer::Enumerate(
    int max_depth, size_t max_count, ResourceGovernor* governor) const {
  RELSPEC_PHASE("query.enumerate");
  std::vector<ConcreteAnswer> out;
  if (!functional_) {
    for (const auto& tuple : flat_) {
      if (out.size() >= max_count) break;
      out.push_back(ConcreteAnswer{std::nullopt, tuple});
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  // Breadth-first over terms, walking clusters by successor. A child is
  // queued only if an answer is reachable from it within max_depth, so the
  // cut subtrees emit nothing and the output keeps its shortlex order. Each
  // node records its parent; a Path is built only for nodes that emit.
  struct Node {
    uint32_t parent;
    uint32_t sym;
    uint32_t cluster;
    int depth;
  };
  const LabelGraph& graph = spec_->graph();
  const std::vector<FuncId>& alphabet = spec_->alphabet();
  std::vector<Node> nodes;
  nodes.push_back(Node{0, 0, graph.ClusterOf(Path::Zero()), 0});
  std::vector<FuncId> symbols;
  size_t head = 0;
  for (; head < nodes.size() && out.size() < max_count; ++head) {
    const Node node = nodes[head];
    RELSPEC_FAILPOINT("query.enumerate");
    if (governor != nullptr) {
      RELSPEC_RETURN_NOT_OK(
          governor->CheckDepth(static_cast<uint64_t>(node.depth)));
      RELSPEC_RETURN_NOT_OK(governor->CheckNodes(nodes.size()));
    }
    const auto& tuples = per_cluster_[node.cluster];
    if (!tuples.empty()) {
      symbols.resize(static_cast<size_t>(node.depth));
      for (uint32_t i = static_cast<uint32_t>(head); i != 0;
           i = nodes[i].parent) {
        symbols[static_cast<size_t>(nodes[i].depth - 1)] =
            alphabet[nodes[i].sym];
      }
      const Path path(symbols);
      for (const auto& tuple : tuples) {
        if (out.size() >= max_count) break;
        out.push_back(ConcreteAnswer{path, tuple});
      }
    }
    const int64_t remaining =
        static_cast<int64_t>(max_depth) - node.depth - 1;
    if (remaining < 0) continue;
    for (size_t s = 0; s < alphabet.size(); ++s) {
      const uint32_t child =
          graph.SuccessorOf(node.cluster, static_cast<SymIdx>(s));
      if (answer_distance_[child] > remaining) continue;
      nodes.push_back(Node{static_cast<uint32_t>(head),
                           static_cast<uint32_t>(s), child, node.depth + 1});
    }
  }
  RELSPEC_COUNTER_ADD("query.enumerate_nodes", head);
  return out;
}

bool QueryAnswer::IsEmpty() const {
  if (!functional_) return flat_.empty();
  for (const auto& tuples : per_cluster_) {
    if (!tuples.empty()) return false;
  }
  return true;
}

size_t QueryAnswer::NumSpecTuples() const {
  if (!functional_) return flat_.size();
  size_t n = 0;
  for (const auto& tuples : per_cluster_) n += tuples.size();
  return n;
}

std::string QueryAnswer::ToString() const {
  std::string out = "answer(";
  out += Join(columns_, ",");
  out += ")";
  if (!functional_) {
    out += StrFormat(": finite, %zu tuples\n", flat_.size());
    return out;
  }
  out += StrFormat(": %zu clusters, %zu spec tuples\n", per_cluster_.size(),
                   NumSpecTuples());
  return out;
}

// ---------------------------------------------------------------------------
// Answers from (B, F)
// ---------------------------------------------------------------------------

namespace {

// One reading of a query term's applications as a walk over the engine
// alphabet, with the constants the walk binds to the variable arguments of
// mixed applications, innermost first.
struct TermWalk {
  std::vector<SymIdx> syms;
  std::vector<ConstId> binds;
};

// Every walk a term can stand for, found by read-only lookup. A pure symbol
// stands for itself; a mixed application g(s, args) stands for each encoding
// g{a...} in the alphabet whose constants agree with its constant arguments.
// A symbol or constant outside the alphabet leaves no walk: no fact holds at
// such a term, since rules are range-restricted.
std::vector<TermWalk> WalksOf(const FuncTerm& term,
                              const GraphSpecification& spec) {
  const SymbolTable& symbols = spec.symbols();
  const std::vector<FuncId>& alphabet = spec.alphabet();
  std::vector<TermWalk> walks(1);
  std::vector<ConstId> decoded;
  for (const FuncApply& app : term.apps) {
    // The alphabet symbols this application stands for, with their binds.
    std::vector<TermWalk> steps;
    if (symbols.function(app.fn).arity < 2) {
      const SymIdx s = spec.graph().SymIndexOf(app.fn);
      if (s != kInvalidId) steps.push_back(TermWalk{{s}, {}});
    } else {
      for (SymIdx s = 0; s < alphabet.size(); ++s) {
        FuncId mixed = kInvalidId;
        if (!DecodePureSymbol(symbols, alphabet[s], &mixed, &decoded) ||
            mixed != app.fn) {
          continue;
        }
        TermWalk step{{s}, {}};
        bool agrees = true;
        for (size_t i = 0; i < app.args.size() && agrees; ++i) {
          if (app.args[i].IsVariable()) {
            step.binds.push_back(decoded[i]);
          } else {
            agrees = app.args[i].id == decoded[i];
          }
        }
        if (agrees) steps.push_back(std::move(step));
      }
    }
    std::vector<TermWalk> next;
    for (const TermWalk& w : walks) {
      for (const TermWalk& step : steps) {
        TermWalk n = w;
        n.syms.insert(n.syms.end(), step.syms.begin(), step.syms.end());
        n.binds.insert(n.binds.end(), step.binds.begin(), step.binds.end());
        next.push_back(std::move(n));
      }
    }
    walks = std::move(next);
  }
  return walks;
}

}  // namespace

StatusOr<QueryAnswer> AnswerQuery(std::shared_ptr<const GraphSpecification> spec,
                                  const Query& query,
                                  ResourceGovernor* governor) {
  RELSPEC_PHASE("query.incremental");
  RELSPEC_COUNTER("query.incremental_answers");
  if (governor != nullptr) RELSPEC_RETURN_NOT_OK(governor->Check());
  const SymbolTable& symbols = spec->symbols();
  RELSPEC_RETURN_NOT_OK(ValidateQuery(query, symbols));
  const LabelGraph& graph = spec->graph();
  const AtomTable& atoms = spec->atom_dictionary();
  std::optional<VarId> func_var = FunctionalVarOf(query);

  QueryAnswer out;
  out.columns_ = ColumnNames(query, symbols);
  out.functional_ =
      func_var.has_value() &&
      std::find(query.answer_vars.begin(), query.answer_vars.end(),
                *func_var) != query.answer_vars.end();

  // Dense variable numbering for the join.
  std::map<VarId, uint32_t> var_index;
  auto var_of = [&](VarId v) {
    auto it = var_index.find(v);
    if (it != var_index.end()) return it->second;
    uint32_t idx = static_cast<uint32_t>(var_index.size());
    var_index.emplace(v, idx);
    return idx;
  };

  // Per-atom plans. A functional atom's relation is read off the labels its
  // walks reach: from each answer cluster when the term is built on the
  // functional variable, once from the cluster of 0 otherwise. Its join
  // columns are its arguments plus its mixed-argument variables. Global
  // atoms and 0-based terms have fixed tuples. An atom naming one of the
  // query's own symbols has no tuples at all.
  struct AtomPlan {
    bool per_cluster = false;
    std::vector<TermWalk> walks;
    std::vector<datalog::Tuple> fixed_tuples;
    datalog::DAtom datom;
  };
  std::vector<AtomPlan> plans(query.atoms.size());
  auto read_walks = [&](PredId pred, const std::vector<TermWalk>& walks,
                        uint32_t start, auto&& emit) {
    datalog::Tuple tuple;
    for (const TermWalk& w : walks) {
      uint32_t c = start;
      for (SymIdx s : w.syms) c = graph.SuccessorOf(c, s);
      graph.label(c).ForEach([&](size_t b) {
        const AtomRef sa = atoms[static_cast<AtomIdx>(b)];
        if (sa.pred != pred) return;
        tuple.assign(sa.args.begin(), sa.args.end());
        tuple.insert(tuple.end(), w.binds.begin(), w.binds.end());
        emit(tuple);
      });
    }
  };
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    const Atom& a = query.atoms[i];
    AtomPlan& plan = plans[i];
    const bool holds_nowhere = query.MentionsLocalSymbol(a);
    plan.datom.pred = static_cast<PredId>(i);
    for (const NfArg& arg : a.args) {
      plan.datom.args.push_back(arg.IsConstant()
                                    ? datalog::DTerm::Val(arg.id)
                                    : datalog::DTerm::Var(var_of(arg.id)));
    }
    if (!a.fterm.has_value()) {
      for (const auto& [pred, args] : spec->globals()) {
        if (pred == a.pred && !holds_nowhere) {
          plan.fixed_tuples.emplace_back(args.begin(), args.end());
        }
      }
      continue;
    }
    for (const FuncApply& app : a.fterm->apps) {
      for (const NfArg& arg : app.args) {
        if (arg.IsVariable()) {
          plan.datom.args.push_back(datalog::DTerm::Var(var_of(arg.id)));
        }
      }
    }
    if (!holds_nowhere) plan.walks = WalksOf(*a.fterm, *spec);
    plan.per_cluster = a.fterm->has_var;
    if (!plan.per_cluster) {
      read_walks(a.pred, plan.walks, graph.ClusterOf(Path::Zero()),
                 [&](const datalog::Tuple& t) {
                   plan.fixed_tuples.push_back(t);
                 });
    }
  }

  // Projection: the non-functional answer columns.
  std::vector<uint32_t> projection;
  for (VarId v : query.answer_vars) {
    if (func_var.has_value() && v == *func_var) continue;
    projection.push_back(var_of(v));
  }
  uint32_t num_vars = static_cast<uint32_t>(var_index.size());

  // The answer tuples of the terms in `cluster` (any cluster when the query
  // has no functional variable).
  auto join_at = [&](uint32_t cluster)
      -> StatusOr<std::vector<std::vector<ConstId>>> {
    datalog::Database jdb;
    std::vector<datalog::DAtom> body;
    for (size_t i = 0; i < plans.size(); ++i) {
      const PredId pred = static_cast<PredId>(i);
      RELSPEC_RETURN_NOT_OK(jdb.Declare(
          pred, static_cast<int>(plans[i].datom.args.size())));
      if (plans[i].per_cluster) {
        read_walks(query.atoms[i].pred, plans[i].walks, cluster,
                   [&](const datalog::Tuple& t) { jdb.Insert(pred, t); });
      } else {
        for (const auto& t : plans[i].fixed_tuples) jdb.Insert(pred, t);
      }
      body.push_back(plans[i].datom);
    }
    return datalog::JoinProject(jdb, body, num_vars, projection);
  };

  if (!func_var.has_value()) {
    RELSPEC_ASSIGN_OR_RETURN(out.flat_, join_at(kInvalidId));
    out.spec_ = std::move(spec);
    return out;
  }
  std::vector<std::vector<std::vector<ConstId>>> per_cluster(
      graph.num_clusters());
  uint64_t answer_tuples = 0;
  for (uint32_t c = 0; c < graph.num_clusters(); ++c) {
    // The per-cluster join is the unit of work; poll the per-request
    // governor here so a deadline cuts a huge answer off mid-flight.
    if (governor != nullptr) {
      RELSPEC_RETURN_NOT_OK(governor->CheckTuples(answer_tuples));
    }
    RELSPEC_ASSIGN_OR_RETURN(per_cluster[c], join_at(c));
    // Canonical order, so Enumerate lists a term's tuples ascending whatever
    // order the join found them in.
    std::sort(per_cluster[c].begin(), per_cluster[c].end());
    answer_tuples += per_cluster[c].size();
  }
  out.spec_ = std::move(spec);
  if (out.functional_) {
    out.per_cluster_ = std::move(per_cluster);
    out.ComputeAnswerDistance();
  } else {
    // The functional variable is existential: flatten to a finite set.
    std::set<std::vector<ConstId>> seen;
    for (const auto& tuples : per_cluster) {
      seen.insert(tuples.begin(), tuples.end());
    }
    out.flat_.assign(seen.begin(), seen.end());
  }
  return out;
}

StatusOr<QueryAnswer> AnswerQuery(const FunctionalDatabase* db,
                                  const Query& query,
                                  ResourceGovernor* governor) {
  return AnswerQuery(db->spec(), query, governor);
}

size_t QueryAnswer::ApproxBytes() const {
  size_t n = sizeof(QueryAnswer);
  for (const std::string& c : columns_) n += c.capacity();
  // The graph and the symbol table belong to the shared spec, but they are
  // charged here anyway: a cached answer can pin a spec that the engine has
  // since replaced, and then nothing else accounts for those bytes.
  n += graph().ApproxBytes();
  n += answer_distance_.size() * sizeof(uint32_t);
  for (const auto& tuples : per_cluster_) {
    n += sizeof(tuples) + tuples.size() * sizeof(std::vector<ConstId>);
    for (const auto& t : tuples) n += t.size() * sizeof(ConstId);
  }
  n += flat_.size() * sizeof(std::vector<ConstId>);
  for (const auto& t : flat_) n += t.size() * sizeof(ConstId);
  // Symbol tables are dominated by names; 24 bytes is a fair per-entry guess
  // without walking every string.
  const SymbolTable& table = symbols();
  n += 24 * (table.num_predicates() + table.num_functions() +
             table.num_constants() + table.num_variables());
  return n;
}

StatusOr<bool> YesNo(std::shared_ptr<const GraphSpecification> spec,
                     const Query& query, ResourceGovernor* governor) {
  RELSPEC_PHASE("query.yesno");
  RELSPEC_COUNTER("query.yesno_checks");
  RELSPEC_ASSIGN_OR_RETURN(QueryAnswer answer,
                           AnswerQuery(std::move(spec), query, governor));
  return !answer.IsEmpty();
}

StatusOr<bool> YesNo(const FunctionalDatabase* db, const Query& query,
                     ResourceGovernor* governor) {
  return YesNo(db->spec(), query, governor);
}

// ---------------------------------------------------------------------------
// Query-answer cache
// ---------------------------------------------------------------------------

std::string QueryCache::FullKey(uint64_t fingerprint,
                                const std::string& query_key) {
  return StrFormat("%016llx|",
                   static_cast<unsigned long long>(fingerprint)) +
         query_key;
}

size_t QueryCache::EffectiveMaxBytes() const {
  size_t budget = options_.max_bytes;
  if (options_.governor != nullptr &&
      options_.governor->limits().max_bytes > 0) {
    uint64_t charged = options_.governor->bytes();
    uint64_t headroom = options_.governor->limits().max_bytes > charged
                            ? options_.governor->limits().max_bytes - charged
                            : 0;
    budget = std::min<size_t>(budget, headroom);
  }
  return budget;
}

std::shared_ptr<const QueryAnswer> QueryCache::Lookup(
    uint64_t fingerprint, const std::string& query_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(FullKey(fingerprint, query_key));
  if (it == index_.end()) {
    RELSPEC_COUNTER("cache.miss");
    RELSPEC_TRACE_INSTANT("cache", "miss");
    return nullptr;
  }
  RELSPEC_COUNTER("cache.hit");
  RELSPEC_TRACE_INSTANT("cache", "hit");
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->answer;
}

void QueryCache::Insert(uint64_t fingerprint, const std::string& query_key,
                        std::shared_ptr<const QueryAnswer> answer) {
  if (options_.max_entries == 0 || answer == nullptr) return;
  std::string key = FullKey(fingerprint, query_key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  size_t budget = EffectiveMaxBytes();
  size_t answer_bytes = answer->ApproxBytes();
  if (answer_bytes > budget) return;  // would evict everything and not fit
  lru_.push_front(Entry{key, std::move(answer), answer_bytes});
  index_[std::move(key)] = lru_.begin();
  bytes_ += answer_bytes;
  EvictToBudget(budget);
}

void QueryCache::EvictToBudget(size_t max_bytes) {
  while (!lru_.empty() &&
         (lru_.size() > options_.max_entries || bytes_ > max_bytes)) {
    const Entry& victim = lru_.back();
    RELSPEC_COUNTER("cache.evict");
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
  }
  RELSPEC_GAUGE_MAX("cache.bytes", bytes_);
  RELSPEC_GAUGE_MAX("cache.entries", lru_.size());
}

void QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

StatusOr<std::shared_ptr<const QueryAnswer>> AnswerQueryCached(
    std::shared_ptr<const GraphSpecification> spec, uint64_t fingerprint,
    const Query& query, QueryCache* cache, ResourceGovernor* governor,
    bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  std::string key;
  if (cache != nullptr) {
    key = ToString(query, spec->symbols());
    if (auto hit = cache->Lookup(fingerprint, key)) {
      if (cache_hit != nullptr) *cache_hit = true;
      return hit;
    }
  }
  RELSPEC_ASSIGN_OR_RETURN(QueryAnswer answer,
                           AnswerQuery(std::move(spec), query, governor));
  auto shared = std::make_shared<const QueryAnswer>(std::move(answer));
  if (cache != nullptr) cache->Insert(fingerprint, key, shared);
  return shared;
}

StatusOr<std::shared_ptr<const QueryAnswer>> AnswerQueryCached(
    const FunctionalDatabase* db, const Query& query, QueryCache* cache,
    ResourceGovernor* governor, bool* cache_hit) {
  return AnswerQueryCached(db->spec(), db->Fingerprint(), query, cache,
                           governor, cache_hit);
}

}  // namespace relspec
