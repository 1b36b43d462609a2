#include "src/core/query.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>

#include "src/ast/printer.h"
#include "src/ast/validate.h"
#include "src/base/failpoint.h"
#include "src/base/governor.h"
#include "src/base/metrics.h"
#include "src/base/str_util.h"
#include "src/base/trace.h"
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
  for (VarId v : query.answer_vars) out.push_back(symbols.variable_name(v));
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
  uint32_t cluster = graph_.ClusterOf(*term);
  if (cluster == kInvalidId) return false;
  const auto& tuples = per_cluster_[cluster];
  return std::find(tuples.begin(), tuples.end(), tuple) != tuples.end();
}

void QueryAnswer::ComputeAnswerDistance() {
  const size_t n = per_cluster_.size();
  std::vector<std::vector<uint32_t>> predecessors(n);
  for (uint32_t c = 0; c < n; ++c) {
    for (uint32_t succ : graph_.cluster(c).successors) {
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
  std::vector<Node> nodes;
  nodes.push_back(Node{0, 0, graph_.ClusterOf(Path::Zero()), 0});
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
            alphabet_[nodes[i].sym];
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
    for (size_t s = 0; s < alphabet_.size(); ++s) {
      const uint32_t child =
          graph_.SuccessorOf(node.cluster, static_cast<SymIdx>(s));
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
// Incremental answers (Theorem 5.1)
// ---------------------------------------------------------------------------

StatusOr<QueryAnswer> AnswerQueryIncremental(FunctionalDatabase* db,
                                             const Query& query,
                                             ResourceGovernor* governor) {
  RELSPEC_PHASE("query.incremental");
  RELSPEC_COUNTER("query.incremental_answers");
  if (governor != nullptr) RELSPEC_RETURN_NOT_OK(governor->Check());
  RELSPEC_RETURN_NOT_OK(ValidateQuery(query, db->program().symbols));
  if (!IsUniformQuery(query)) {
    return Status::InvalidArgument(
        "incremental answers require a uniform query (Theorem 5.1); use "
        "AnswerQueryRecompute");
  }
  const SymbolTable& symbols = db->program().symbols;
  const GroundProgram& ground = db->ground();
  const LabelGraph& graph = db->label_graph();
  std::optional<VarId> func_var = FunctionalVarOf(query);

  QueryAnswer out;
  out.symbols_ = symbols;
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

  // Per-atom relation sources.
  enum class Source { kSlice, kFixed, kGlobal };
  struct AtomPlan {
    Source source = Source::kGlobal;
    std::vector<datalog::Tuple> fixed_tuples;  // kFixed / kGlobal
    datalog::DAtom datom;
  };
  std::vector<AtomPlan> plans;
  bool any_slice = false;
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    const Atom& a = query.atoms[i];
    AtomPlan plan;
    plan.datom.pred = static_cast<PredId>(i);
    for (const NfArg& arg : a.args) {
      plan.datom.args.push_back(arg.IsConstant()
                                    ? datalog::DTerm::Val(arg.id)
                                    : datalog::DTerm::Var(var_of(arg.id)));
    }
    if (!a.fterm.has_value()) {
      plan.source = Source::kGlobal;
      for (CtxIdx ci = 0; ci < ground.num_ctx(); ++ci) {
        const CtxProp& prop = ground.ctx_prop(ci);
        if (prop.kind == CtxProp::Kind::kGlobal && prop.pred == a.pred &&
            db->labeling().ctx().Test(ci)) {
          plan.fixed_tuples.push_back(prop.args);
        }
      }
    } else if (a.fterm->IsGround()) {
      plan.source = Source::kFixed;
      RELSPEC_ASSIGN_OR_RETURN(Path path, db->PathOfGroundTerm(*a.fterm));
      const DynamicBitset& label = db->labeling().LabelOf(path);
      label.ForEach([&](size_t b) {
        const SliceAtom& sa = ground.atom(static_cast<AtomIdx>(b));
        if (sa.pred == a.pred) plan.fixed_tuples.push_back(sa.args);
      });
    } else {
      plan.source = Source::kSlice;
      any_slice = true;
    }
    plans.push_back(std::move(plan));
  }

  // Projection: the non-functional answer columns.
  std::vector<uint32_t> projection;
  for (VarId v : query.answer_vars) {
    if (func_var.has_value() && v == *func_var) continue;
    projection.push_back(var_of(v));
  }
  uint32_t num_vars = static_cast<uint32_t>(var_index.size());

  auto join_against = [&](const DynamicBitset* cluster_label)
      -> StatusOr<std::vector<std::vector<ConstId>>> {
    datalog::Database jdb;
    std::vector<datalog::DAtom> body;
    for (size_t i = 0; i < plans.size(); ++i) {
      RELSPEC_RETURN_NOT_OK(jdb.Declare(
          static_cast<PredId>(i),
          static_cast<int>(plans[i].datom.args.size())));
      if (plans[i].source == Source::kSlice) {
        cluster_label->ForEach([&](size_t b) {
          const SliceAtom& sa = ground.atom(static_cast<AtomIdx>(b));
          if (sa.pred == query.atoms[i].pred) {
            jdb.Insert(static_cast<PredId>(i), sa.args);
          }
        });
      } else {
        for (const auto& t : plans[i].fixed_tuples) {
          jdb.Insert(static_cast<PredId>(i), t);
        }
      }
      body.push_back(plans[i].datom);
    }
    return datalog::JoinProject(jdb, body, num_vars, projection);
  };

  if (func_var.has_value()) {
    out.graph_ = graph;
    out.alphabet_ = ground.alphabet();
    out.per_cluster_.resize(graph.num_clusters());
    uint64_t answer_tuples = 0;
    for (uint32_t c = 0; c < graph.num_clusters(); ++c) {
      // The per-cluster join is the unit of work; poll the per-request
      // governor here so a deadline cuts a huge answer off mid-flight.
      if (governor != nullptr) {
        RELSPEC_RETURN_NOT_OK(governor->CheckTuples(answer_tuples));
      }
      RELSPEC_ASSIGN_OR_RETURN(out.per_cluster_[c],
                               join_against(&graph.cluster(c).label));
      answer_tuples += out.per_cluster_[c].size();
    }
    if (out.functional_) {
      out.ComputeAnswerDistance();
    } else {
      // The functional variable is existential: flatten to a finite set.
      std::set<std::vector<ConstId>> seen;
      for (const auto& tuples : out.per_cluster_) {
        seen.insert(tuples.begin(), tuples.end());
      }
      out.flat_.assign(seen.begin(), seen.end());
      out.per_cluster_.clear();
      out.graph_ = LabelGraph();
      out.alphabet_.clear();
    }
  } else {
    (void)any_slice;  // no functional variable => no slice sources
    RELSPEC_ASSIGN_OR_RETURN(out.flat_, join_against(nullptr));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Recompute answers (the general method)
// ---------------------------------------------------------------------------

StatusOr<QueryAnswer> AnswerQueryRecompute(FunctionalDatabase* db,
                                           const Query& query,
                                           ResourceGovernor* governor) {
  RELSPEC_PHASE("query.recompute");
  RELSPEC_COUNTER("query.recompute_answers");
  if (governor != nullptr) RELSPEC_RETURN_NOT_OK(governor->Check());
  RELSPEC_RETURN_NOT_OK(ValidateQuery(query, db->program().symbols));
  static std::atomic<int> counter{0};
  std::string pred_name = StrFormat("$query%d", counter++);

  Program extended = db->original_program();
  // The query was parsed against the transformed symbol table; share it so
  // variable/predicate ids line up.
  extended.symbols = db->program().symbols;

  std::optional<VarId> func_var = FunctionalVarOf(query);
  bool functional =
      func_var.has_value() &&
      std::find(query.answer_vars.begin(), query.answer_vars.end(),
                *func_var) != query.answer_vars.end();

  Rule query_rule;
  query_rule.body = query.atoms;
  Atom head;
  int arity = static_cast<int>(query.answer_vars.size());
  RELSPEC_ASSIGN_OR_RETURN(
      head.pred, extended.symbols.InternPredicate(pred_name, arity, functional));
  if (functional) head.fterm = FuncTerm::Var(*func_var);
  for (VarId v : query.answer_vars) {
    if (functional && v == *func_var) continue;
    head.args.push_back(NfArg::Variable(v));
  }
  query_rule.head = std::move(head);
  extended.rules.push_back(std::move(query_rule));

  // The recompute method pays a full sub-pipeline (ground/fixpoint/Q); the
  // per-request governor rides it through the existing engine plumbing, so
  // a deadline or node budget interrupts the rebuild cooperatively.
  EngineOptions sub_options;
  sub_options.governor = governor;
  RELSPEC_ASSIGN_OR_RETURN(
      std::unique_ptr<FunctionalDatabase> sub,
      FunctionalDatabase::FromProgram(std::move(extended), sub_options));
  RELSPEC_ASSIGN_OR_RETURN(PredId qpred,
                           sub->program().symbols.FindPredicate(pred_name));

  QueryAnswer out;
  out.symbols_ = sub->program().symbols;
  out.columns_ = ColumnNames(query, out.symbols_);
  out.functional_ = functional;
  const GroundProgram& sground = sub->ground();
  if (functional) {
    out.graph_ = sub->label_graph();
    out.alphabet_ = sground.alphabet();
    out.per_cluster_.resize(out.graph_.num_clusters());
    for (uint32_t c = 0; c < out.graph_.num_clusters(); ++c) {
      out.graph_.cluster(c).label.ForEach([&](size_t b) {
        const SliceAtom& sa = sground.atom(static_cast<AtomIdx>(b));
        if (sa.pred == qpred) out.per_cluster_[c].push_back(sa.args);
      });
    }
    out.ComputeAnswerDistance();
  } else {
    std::set<std::vector<ConstId>> seen;
    if (func_var.has_value()) {
      // Existential functional variable: QUERY facts may live in slices of
      // any cluster if the head is functional — but we made the head
      // non-functional, so they are globals.
    }
    for (CtxIdx ci = 0; ci < sground.num_ctx(); ++ci) {
      const CtxProp& prop = sground.ctx_prop(ci);
      if (prop.kind == CtxProp::Kind::kGlobal && prop.pred == qpred &&
          sub->labeling().ctx().Test(ci)) {
        seen.insert(prop.args);
      }
    }
    out.flat_.assign(seen.begin(), seen.end());
  }
  return out;
}

size_t QueryAnswer::ApproxBytes() const {
  size_t n = sizeof(QueryAnswer);
  for (const std::string& c : columns_) n += c.capacity();
  for (const Cluster& c : graph_.clusters()) {
    n += sizeof(Cluster) + c.representative.depth() * sizeof(FuncId) +
         c.label.size() / 8 + c.successors.size() * sizeof(uint32_t);
  }
  n += alphabet_.size() * sizeof(FuncId);
  n += answer_distance_.size() * sizeof(uint32_t);
  for (const auto& tuples : per_cluster_) {
    n += sizeof(tuples) + tuples.size() * sizeof(std::vector<ConstId>);
    for (const auto& t : tuples) n += t.size() * sizeof(ConstId);
  }
  n += flat_.size() * sizeof(std::vector<ConstId>);
  for (const auto& t : flat_) n += t.size() * sizeof(ConstId);
  // Symbol tables are dominated by names; 24 bytes is a fair per-entry guess
  // without walking every string.
  n += 24 * (symbols_.num_predicates() + symbols_.num_functions() +
             symbols_.num_constants() + symbols_.num_variables());
  return n;
}

StatusOr<QueryAnswer> AnswerQuery(FunctionalDatabase* db, const Query& query,
                                  ResourceGovernor* governor) {
  if (IsUniformQuery(query)) {
    return AnswerQueryIncremental(db, query, governor);
  }
  return AnswerQueryRecompute(db, query, governor);
}

StatusOr<bool> YesNo(FunctionalDatabase* db, const Query& query,
                     ResourceGovernor* governor) {
  RELSPEC_PHASE("query.yesno");
  RELSPEC_COUNTER("query.yesno_checks");
  RELSPEC_ASSIGN_OR_RETURN(QueryAnswer answer,
                           AnswerQuery(db, query, governor));
  return !answer.IsEmpty();
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
    FunctionalDatabase* db, const Query& query, QueryCache* cache,
    ResourceGovernor* governor, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  if (cache == nullptr) {
    RELSPEC_ASSIGN_OR_RETURN(QueryAnswer answer,
                             AnswerQuery(db, query, governor));
    return std::make_shared<const QueryAnswer>(std::move(answer));
  }
  uint64_t fp = db->Fingerprint();
  std::string key = ToString(query, db->program().symbols);
  if (auto hit = cache->Lookup(fp, key)) {
    if (cache_hit != nullptr) *cache_hit = true;
    return hit;
  }
  RELSPEC_ASSIGN_OR_RETURN(QueryAnswer answer,
                           AnswerQuery(db, query, governor));
  auto shared = std::make_shared<const QueryAnswer>(std::move(answer));
  cache->Insert(fp, key, shared);
  return shared;
}

}  // namespace relspec
