#include "src/datalog/relation.h"

#include "src/base/logging.h"

namespace relspec {
namespace datalog {

bool Relation::RowEquals(uint32_t r, RowRef tuple) const {
  const Value* stored = data_.data() + r * static_cast<size_t>(arity_);
  for (size_t c = 0; c < tuple.size(); ++c) {
    if (stored[c] != tuple[c]) return false;
  }
  return true;
}

uint32_t Relation::FindRow(uint64_t hash, RowRef tuple, size_t* slot) const {
  size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t r = slots_[i];
    if (r == kEmptySlot || RowEquals(r, tuple)) {
      *slot = i;
      return r;
    }
    i = (i + 1) & mask;
  }
}

void Relation::GrowSet() {
  std::vector<uint32_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, kEmptySlot);
  size_t mask = slots_.size() - 1;
  for (uint32_t r : old) {
    if (r == kEmptySlot) continue;
    size_t i = static_cast<size_t>(TupleHash::Of(row(r))) & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = r;
  }
}

bool Relation::Insert(RowRef tuple) {
  RELSPEC_CHECK_EQ(static_cast<int>(tuple.size()), arity_);
  size_t slot = 0;
  if (FindRow(TupleHash::Of(tuple), tuple, &slot) != kEmptySlot) return false;
  uint32_t r = static_cast<uint32_t>(num_rows_);
  data_.insert(data_.end(), tuple.begin(), tuple.end());
  ++num_rows_;
  slots_[slot] = r;
  if (num_rows_ * 10 >= slots_.size() * 7) GrowSet();  // 70% load
  return true;
}

bool Relation::Contains(RowRef tuple) const {
  if (static_cast<int>(tuple.size()) != arity_) return false;
  size_t slot = 0;
  return FindRow(TupleHash::Of(tuple), tuple, &slot) != kEmptySlot;
}

std::vector<Tuple> Relation::CopyRows() const {
  std::vector<Tuple> out;
  out.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    RowRef v = row(r);
    out.emplace_back(v.begin(), v.end());
  }
  return out;
}

const std::vector<uint32_t>& Relation::Probe(const std::vector<int>& columns,
                                             const Tuple& key) const {
  static const std::vector<uint32_t> kEmpty;
  const ColumnIndex& index = BuildIndex(columns);
  auto it = index.map.find(key);
  return it == index.map.end() ? kEmpty : it->second;
}

const Relation::ColumnIndex& Relation::BuildIndex(
    const std::vector<int>& columns) const {
  uint64_t mask = 0;
  for (int c : columns) mask |= uint64_t{1} << c;
  ColumnIndex& index = indexes_[mask];
  if (index.built_at < num_rows_) {
    // Catch the index up with rows appended since the last build.
    for (uint32_t r = static_cast<uint32_t>(index.built_at); r < num_rows_;
         ++r) {
      RowRef v = row(r);
      Tuple k;
      k.reserve(columns.size());
      for (int c : columns) k.push_back(v[static_cast<size_t>(c)]);
      index.map[std::move(k)].push_back(r);
    }
    index.built_at = num_rows_;
  }
  return index;
}

void Relation::Clear() {
  num_rows_ = 0;
  data_.clear();
  slots_.assign(kInitialSlots, kEmptySlot);
  indexes_.clear();
}

}  // namespace datalog
}  // namespace relspec
