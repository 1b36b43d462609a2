// AtomTable: distinct atoms pred(args...) over constants, stored flat.
//
// The ground universe U = {(P, a...)} (Section 2.5), the globals of B and the
// context propositions are tables of this shape. A row is a predicate and a
// run of constants; the rows live in three arrays (a predicate per row, the
// end offset of each row's run, and one arena of every run back to back),
// and an IdIndex finds a row by (pred, args), comparing it in place. So a
// row costs no heap block of its own: interning, finding or copying rows
// allocates only the arrays' doublings. Rows keep their first-seen order,
// which is their id.

#ifndef RELSPEC_CORE_ATOM_TABLE_H_
#define RELSPEC_CORE_ATOM_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "src/base/id_index.h"
#include "src/term/symbol_table.h"

namespace relspec {

/// One row of an AtomTable, read in place: valid until the table changes.
struct AtomRef {
  PredId pred = kInvalidId;
  std::span<const ConstId> args;
};

class AtomTable {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AtomRef;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = AtomRef;

    Iterator() = default;
    Iterator(const AtomTable* table, uint32_t row) : table_(table), row_(row) {}
    AtomRef operator*() const { return (*table_)[row_]; }
    Iterator& operator++() {
      ++row_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator out = *this;
      ++row_;
      return out;
    }
    bool operator==(const Iterator& o) const { return row_ == o.row_; }

   private:
    const AtomTable* table_ = nullptr;
    uint32_t row_ = 0;
  };

  size_t size() const { return preds_.size(); }
  bool empty() const { return preds_.empty(); }
  /// The arguments of all rows together.
  size_t num_args() const { return args_.size(); }

  AtomRef operator[](uint32_t row) const {
    const uint32_t begin = row == 0 ? 0 : ends_[row - 1];
    return AtomRef{preds_[row], {args_.data() + begin, ends_[row] - begin}};
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, static_cast<uint32_t>(size())); }

  /// The row of pred(args...), or kInvalidId when the table lacks it.
  uint32_t Find(PredId pred, std::span<const ConstId> args) const {
    return Find(Hash(pred, args), pred, args);
  }

  /// The row of pred(args...), appended when the table lacks it. `args` may
  /// not point into this table.
  uint32_t Intern(PredId pred, std::span<const ConstId> args) {
    const uint64_t hash = Hash(pred, args);
    uint32_t row = Find(hash, pred, args);
    if (row != kInvalidId) return row;
    row = static_cast<uint32_t>(preds_.size());
    preds_.push_back(pred);
    args_.insert(args_.end(), args.begin(), args.end());
    ends_.push_back(static_cast<uint32_t>(args_.size()));
    index_.Insert(hash, row);
    return row;
  }

  /// Sizes the arrays for `rows` rows holding `args` constants in all.
  void Reserve(size_t rows, size_t args) {
    preds_.reserve(rows);
    ends_.reserve(rows);
    args_.reserve(args);
    index_.Reserve(rows);
  }

  /// The same rows in the same order.
  bool operator==(const AtomTable& o) const {
    return preds_ == o.preds_ && ends_ == o.ends_ && args_ == o.args_;
  }

 private:
  static_assert(IdIndex::kNone == kInvalidId);

  /// FNV-1a over the predicate and the arguments; IdIndex mixes it.
  static uint64_t Hash(PredId pred, std::span<const ConstId> args) {
    uint64_t h = (1469598103934665603ull ^ pred) * 1099511628211ull;
    for (ConstId c : args) h = (h ^ c) * 1099511628211ull;
    return h;
  }

  uint32_t Find(uint64_t hash, PredId pred,
                std::span<const ConstId> args) const {
    return index_.Find(hash, [&](uint32_t row) {
      const AtomRef r = (*this)[row];
      return r.pred == pred && std::ranges::equal(r.args, args);
    });
  }

  std::vector<PredId> preds_;
  std::vector<uint32_t> ends_;  // row i's args are args_[ends_[i-1], ends_[i])
  std::vector<ConstId> args_;
  IdIndex index_;
};

}  // namespace relspec

#endif  // RELSPEC_CORE_ATOM_TABLE_H_
