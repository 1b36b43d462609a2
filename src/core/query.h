// Query answering with finitely represented (possibly infinite) answers
// (Section 5).
//
// Queries are positive conjunctions with at most one functional variable s.
// Every query is answered from the engine's own specification (B, F): the
// answer is (Q(B), F), the query joined against each cluster's label, over
// the unchanged successor graph. No fixpoint is recomputed.
//
// This is exact for any query, not only the uniform ones of Theorem 5.1.
// Beyond the trunk, a child's label is a function of its parent's label, so
// the cluster partition is a right congruence: every term t of a cluster C
// has f(t) in the cluster SuccessorOf(C, f). An atom at f_k(...f_1(s)...)
// therefore reads, for cluster C, the label reached by walking f_1 ... f_k
// from C; an atom on a 0-based term walks from the cluster of 0. A mixed
// application with variable arguments, ext(s, y), ranges over the
// alphabet's pure encodings ext{a} and binds y = a as a join column. A
// symbol or constant outside the alphabet leaves no walk, and the atom holds
// nowhere: rules are range-restricted, so no fact lies at such a term. The
// same holds for the query's own names (Query::local), which no fact has.
//
// AnswerQuery only reads the engine, which it takes const: symbols are found
// by lookup, never interned, and labels come from the graph, not the
// on-demand labeling.

#ifndef RELSPEC_CORE_QUERY_H_
#define RELSPEC_CORE_QUERY_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/ast.h"
#include "src/base/status.h"
#include "src/core/engine.h"
#include "src/core/label_graph.h"

namespace relspec {

/// One concrete element of a query answer: the functional term (if the
/// functional variable is an answer column) plus the non-functional columns
/// in answer_vars order.
struct ConcreteAnswer {
  std::optional<Path> term;
  std::vector<ConstId> tuple;
  bool operator==(const ConcreteAnswer& o) const {
    bool term_eq = term.has_value() == o.term.has_value() &&
                   (!term.has_value() || *term == *o.term);
    return term_eq && tuple == o.tuple;
  }
  bool operator<(const ConcreteAnswer& o) const;
};

/// A finitely represented query answer. For answers with a functional
/// column, the representation is (Q(B), F): per-cluster tuple sets plus the
/// successor graph; for finite answers it is a plain tuple set.
class QueryAnswer {
 public:
  /// True if the functional variable is one of the answer columns (the
  /// answer may then be infinite).
  bool has_functional_answer() const { return functional_; }

  /// Answer column names, in answer_vars order (functional column included).
  const std::vector<std::string>& columns() const { return columns_; }

  /// Membership of a candidate answer. `term` must be provided iff
  /// has_functional_answer().
  StatusOr<bool> Contains(const std::optional<Path>& term,
                          const std::vector<ConstId>& tuple) const;

  /// Concrete answers: finite answers are returned in full; infinite ones
  /// are expanded breadth-first over terms up to max_depth / max_count, in
  /// shortlex order, a term's tuples ascending. Only terms that can still reach an answer within
  /// max_depth are expanded, so the cost follows the output, not
  /// |Sigma|^max_depth. The optional governor is polled per expanded term:
  /// its max_depth budget bounds the term depth reached (CheckDepth) and its
  /// max_nodes budget bounds the frontier (CheckNodes), turning a runaway
  /// enumeration into kResourceExhausted.
  StatusOr<std::vector<ConcreteAnswer>> Enumerate(
      int max_depth, size_t max_count,
      ResourceGovernor* governor = nullptr) const;

  /// True if the answer has no elements at all.
  bool IsEmpty() const;

  /// Tuples stored in the specification (size of Q(B)).
  size_t NumSpecTuples() const;

  /// Approximate heap footprint of this answer, for cache budgeting.
  size_t ApproxBytes() const;

  const SymbolTable& symbols() const { return symbols_; }
  const LabelGraph& graph() const { return graph_; }
  /// Function symbols of the term alphabet, in successor-index order.
  const std::vector<FuncId>& alphabet() const { return alphabet_; }
  const std::vector<std::vector<std::vector<ConstId>>>& tuples_per_cluster()
      const {
    return per_cluster_;
  }

  std::string ToString() const;

 private:
  friend StatusOr<QueryAnswer> AnswerQuery(const FunctionalDatabase*,
                                           const Query&, ResourceGovernor*);

  /// Fills answer_distance_ from graph_ and per_cluster_ by one reverse BFS
  /// over the successor map. Called once, when a functional answer is built.
  void ComputeAnswerDistance();

  bool functional_ = false;
  std::vector<std::string> columns_;
  // Functional answers: aligned with graph_ clusters.
  LabelGraph graph_;
  std::vector<FuncId> alphabet_;
  std::vector<std::vector<std::vector<ConstId>>> per_cluster_;
  // Successor steps from each cluster to the nearest cluster with tuples;
  // kNoAnswer when none is reachable (e.g. the sink of a truncated graph).
  static constexpr uint32_t kNoAnswer = UINT32_MAX;
  std::vector<uint32_t> answer_distance_;
  // Finite answers:
  std::vector<std::vector<ConstId>> flat_;
  SymbolTable symbols_;
};

/// Answers `query` from the engine's (B, F) without changing the engine. The
/// optional `governor` bounds THIS answer only (per-request deadline/budgets
/// for a serving loop) and is polled per cluster. A breach surfaces as the
/// governor's sticky Status (kDeadlineExceeded / kResourceExhausted /
/// kCancelled), never as process state — callers decide whether that is an
/// error reply or fatal. Pass nullptr (the default) for ungoverned answers;
/// distinct from EngineOptions::governor, which governs the engine *build*.
/// On a truncated engine, terms routed through the unknown sink read an
/// empty label: the answer is a sound under-approximation.
StatusOr<QueryAnswer> AnswerQuery(const FunctionalDatabase* db,
                                  const Query& query,
                                  ResourceGovernor* governor = nullptr);

/// "Does Z and D imply the (existentially closed) query?"
StatusOr<bool> YesNo(const FunctionalDatabase* db, const Query& query,
                     ResourceGovernor* governor = nullptr);

// ---------------------------------------------------------------------------
// Query-answer cache
// ---------------------------------------------------------------------------

/// LRU cache of query answers, keyed by (database fingerprint, normalized
/// query text). Answers are immutable once constructed, so hits share them
/// by shared_ptr; the fingerprint keys out stale entries when a different
/// database reuses the cache.
///
/// Thread-safe: one internal mutex guards the LRU list, index, and byte
/// accounting, so a single cache can be shared across serving threads
/// (src/serve/server.cc). A single mutex rather than stripes because even a
/// Lookup hit *writes* (splices the entry to the LRU front to refresh
/// recency) — striping or a shared_mutex would buy nothing on this
/// structure. Eviction and the cache.hit/miss/evict counters are published
/// under the lock, so the counters stay consistent with the entries under
/// concurrency (pinned by the parallel_test cache stress under tsan).
/// Invalidation semantics are unchanged from the single-threaded cache: the
/// DeltaCacheTest fingerprint-keying contract holds verbatim.
class QueryCache {
 public:
  struct Options {
    /// Entry-count ceiling. Zero disables caching entirely.
    size_t max_entries = 64;
    /// Approximate byte ceiling over cached answers (QueryAnswer::ApproxBytes).
    size_t max_bytes = 16 << 20;
    /// Optional governor. The effective byte budget at each insert is
    /// min(max_bytes, the governor's remaining tracked-allocation headroom).
    /// The cache never calls ChargeBytes: a sticky breach would poison the
    /// run over what is only an optimization. Must outlive the cache.
    ResourceGovernor* governor = nullptr;
  };

  QueryCache() : QueryCache(Options()) {}
  explicit QueryCache(Options options) : options_(options) {}

  /// The cached answer, or nullptr. A hit refreshes LRU recency. Publishes
  /// cache.hit / cache.miss.
  std::shared_ptr<const QueryAnswer> Lookup(uint64_t fingerprint,
                                            const std::string& query_key);

  /// Inserts (replacing any entry under the same key), then evicts
  /// least-recently-used entries until both budgets hold. An answer larger
  /// than the effective byte budget is not cached at all.
  void Insert(uint64_t fingerprint, const std::string& query_key,
              std::shared_ptr<const QueryAnswer> answer);

  void Clear();
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const QueryAnswer> answer;
    size_t bytes = 0;
  };

  static std::string FullKey(uint64_t fingerprint,
                             const std::string& query_key);
  size_t EffectiveMaxBytes() const;
  void EvictToBudget(size_t max_bytes);  // caller holds mu_

  Options options_;
  mutable std::mutex mu_;  // guards lru_, index_, bytes_
  std::list<Entry> lru_;   // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
};

/// AnswerQuery through `cache`: the key is (db->Fingerprint(), the query
/// printed in normal form, answer columns included), so textually different
/// spellings of the same normalized query share an entry. With a null cache this is exactly
/// AnswerQuery. The per-request `governor` is consulted only on the miss
/// path (a hit is a map lookup — pointless to breach). When `cache_hit` is
/// non-null it is set to whether the answer came from the cache (the
/// serving slow log attributes latency to the cache or eval phase by it).
StatusOr<std::shared_ptr<const QueryAnswer>> AnswerQueryCached(
    const FunctionalDatabase* db, const Query& query, QueryCache* cache,
    ResourceGovernor* governor = nullptr, bool* cache_hit = nullptr);

}  // namespace relspec

#endif  // RELSPEC_CORE_QUERY_H_
