#include "src/base/bitset.h"

#include <algorithm>
#include <cassert>

namespace relspec {

size_t BitView::Count() const {
  size_t n = 0;
  for (uint64_t w : words()) n += static_cast<size_t>(__builtin_popcountll(w));
  return n;
}

bool BitView::None() const {
  for (uint64_t w : words()) {
    if (w != 0) return false;
  }
  return true;
}

bool BitView::IsSubsetOf(BitView other) const {
  assert(size_ == other.size_);
  const std::span<const uint64_t> mine = words();
  for (size_t i = 0; i < mine.size(); ++i) {
    if ((mine[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

bool operator==(BitView a, BitView b) {
  if (a.size_ != b.size_) return false;
  const std::span<const uint64_t> aw = a.words();
  return std::equal(aw.begin(), aw.end(), b.words_);
}

std::vector<size_t> BitView::ToVector() const {
  std::vector<size_t> out;
  out.reserve(Count());
  ForEach([&](size_t i) { out.push_back(i); });
  return out;
}

std::string BitView::ToString() const {
  std::string out = "{";
  bool first = true;
  ForEach([&](size_t i) {
    if (!first) out += ",";
    first = false;
    out += std::to_string(i);
  });
  out += "}";
  return out;
}

size_t BitView::Hash() const {
  // FNV-1a over the words; adequate for hashing state sets.
  uint64_t h = 14695981039346656037ull;
  for (uint64_t w : words()) {
    h ^= w;
    h *= 1099511628211ull;
  }
  h ^= size_;
  h *= 1099511628211ull;
  return static_cast<size_t>(h);
}

bool DynamicBitset::UnionWith(const DynamicBitset& other) {
  assert(size_ == other.size_);
  bool changed = false;
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t merged = words_[i] | other.words_[i];
    if (merged != words_[i]) {
      words_[i] = merged;
      changed = true;
    }
  }
  return changed;
}

void DynamicBitset::IntersectWith(const DynamicBitset& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void DynamicBitset::SubtractWith(const DynamicBitset& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
}

void DynamicBitset::Clear() {
  for (uint64_t& w : words_) w = 0;
}

bool DynamicBitset::operator<(const DynamicBitset& other) const {
  if (size_ != other.size_) return size_ < other.size_;
  return words_ < other.words_;
}

}  // namespace relspec
