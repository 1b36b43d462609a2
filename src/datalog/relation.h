// Relation: flat tuple storage with lazily built hash indexes.
//
// The DATALOG substrate works over dense uint32 values. A value is a ConstId
// for ordinary columns; the CONGR evaluation (core/congr.h) also stores
// interned TermIds in columns, which is why relations are value-agnostic —
// and why flat storage pays off twice: a row is `arity` contiguous uint32s
// in one shared vector (no per-tuple heap allocation), and row views are
// spans into that vector. Duplicate elimination is an open-addressing set
// over row indices, so Insert does one hash + probe against the flat data.

#ifndef RELSPEC_DATALOG_RELATION_H_
#define RELSPEC_DATALOG_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"

namespace relspec {
namespace datalog {

using Value = uint32_t;
using Tuple = std::vector<Value>;
/// A borrowed view of one stored row; valid until the next Insert.
using RowRef = std::span<const Value>;

struct TupleHash {
  /// splitmix64 finalizer: full-avalanche mix of one 64-bit word.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  // Chained splitmix over the elements. The previous FNV-1a variant
  // (h ^= v; h *= prime) only feeds each 32-bit value into the low half of
  // the state and relies on two multiplies for diffusion, which clusters
  // the low index bits for the dense, correlated ids this engine stores;
  // Mix gives every element full avalanche and the chaining keeps the hash
  // order-sensitive (permuted tuples hash differently — see the collision
  // regression test in tests/datalog_test.cc).
  static uint64_t Of(RowRef t) {
    uint64_t h = Mix(0x243f6a8885a308d3ull ^ t.size());
    for (Value v : t) h = Mix(h ^ v);
    return h;
  }
  size_t operator()(const Tuple& t) const {
    return static_cast<size_t>(Of(t));
  }
};

/// A set of equal-arity tuples, with duplicate elimination, insertion-order
/// iteration, and hash indexes on arbitrary bound-column subsets.
class Relation {
 public:
  explicit Relation(int arity) : arity_(arity) {
    slots_.assign(kInitialSlots, kEmptySlot);
  }

  int arity() const { return arity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Inserts a tuple; returns true if it was new.
  bool Insert(RowRef tuple);
  bool Insert(std::initializer_list<Value> tuple) {
    return Insert(RowRef(tuple.begin(), tuple.size()));
  }
  bool Contains(RowRef tuple) const;
  bool Contains(std::initializer_list<Value> tuple) const {
    return Contains(RowRef(tuple.begin(), tuple.size()));
  }

  /// Row `i` in insertion order. Stable across inserts (indices only grow);
  /// the view itself is invalidated by the next Insert.
  RowRef row(size_t i) const {
    return RowRef(data_.data() + i * static_cast<size_t>(arity_),
                  static_cast<size_t>(arity_));
  }

  /// Materializes every row as an owned Tuple, in insertion order. For
  /// tests and serialization; the hot paths use row().
  std::vector<Tuple> CopyRows() const;

  /// Row indices whose tuple matches `key` on the columns in `columns`
  /// (ascending). Uses (and lazily rebuilds) a hash index for the column
  /// subset.
  const std::vector<uint32_t>& Probe(const std::vector<int>& columns,
                                     const Tuple& key) const;

  void Clear();

 private:
  static constexpr size_t kInitialSlots = 16;  // power of two
  static constexpr uint32_t kEmptySlot = 0xffffffffu;

  struct ColumnIndex {
    uint64_t built_at = 0;  // num_rows_ when last built
    std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash> map;
  };

  bool RowEquals(uint32_t r, RowRef tuple) const;
  /// Probes the dedup set; returns the matching row index or kEmptySlot,
  /// and the slot where an insert would go.
  uint32_t FindRow(uint64_t hash, RowRef tuple, size_t* slot) const;
  void GrowSet();

  /// Lazily (re)builds and returns the index for the column set.
  const ColumnIndex& BuildIndex(const std::vector<int>& columns) const;

  int arity_;
  size_t num_rows_ = 0;
  std::vector<Value> data_;  // num_rows_ * arity_ values, row-major
  // Open-addressing dedup set over row indices: power-of-two sized,
  // kEmptySlot = empty.
  std::vector<uint32_t> slots_;
  // Key: bitmask of indexed columns.
  mutable std::unordered_map<uint64_t, ColumnIndex> indexes_;
};

}  // namespace datalog
}  // namespace relspec

#endif  // RELSPEC_DATALOG_RELATION_H_
