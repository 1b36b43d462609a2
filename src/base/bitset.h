// DynamicBitset: a fixed-universe, heap-backed bitset.
//
// The fixpoint machinery in src/core represents the "state" of a term — the
// set of atoms of the grounded universe true at that term — as a
// DynamicBitset. States are hashed (they key the subtree-closure table and
// the state-equivalence relation of the paper, Section 3.1), unioned, and
// compared for subset inclusion in inner loops, so those operations are
// word-parallel.

#ifndef RELSPEC_BASE_BITSET_H_
#define RELSPEC_BASE_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace relspec {

/// A set of integers drawn from a universe [0, size) fixed at construction.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  /// Creates an empty set over the universe [0, size).
  explicit DynamicBitset(size_t size)
      : size_(size), words_(NumWords(size), 0) {}
  /// The set over [0, size) whose words are `words` (NumWords(size) of them,
  /// bit i of the set being bit i % 64 of word i / 64).
  DynamicBitset(size_t size, std::span<const uint64_t> words)
      : size_(size), words_(words.begin(), words.end()) {}

  /// The words a set over [0, size) occupies.
  static size_t NumWords(size_t size) { return (size + 63) / 64; }

  size_t size() const { return size_; }
  std::span<const uint64_t> words() const { return words_; }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  /// Sets the bits `mask` of word w and returns those that were clear.
  uint64_t SetWordBits(size_t w, uint64_t mask) {
    const uint64_t added = mask & ~words_[w];
    words_[w] |= mask;
    return added;
  }

  /// Number of elements in the set (popcount).
  size_t Count() const;
  bool None() const;
  bool Any() const { return !None(); }

  /// True if every element of this set is also in `other`.
  /// Precondition: same universe size.
  bool IsSubsetOf(const DynamicBitset& other) const;

  /// this |= other. Returns true if this changed.
  bool UnionWith(const DynamicBitset& other);
  /// this &= other.
  void IntersectWith(const DynamicBitset& other);
  /// this &= ~other.
  void SubtractWith(const DynamicBitset& other);
  void Clear();

  bool operator==(const DynamicBitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }
  bool operator!=(const DynamicBitset& other) const { return !(*this == other); }

  /// Deterministic total order (for use as map keys and canonical output).
  bool operator<(const DynamicBitset& other) const;

  /// Calls f(i) for each element i in increasing order.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        int b = __builtin_ctzll(bits);
        f(w * 64 + static_cast<size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Elements in increasing order.
  std::vector<size_t> ToVector() const;

  /// "{1,5,9}" — for debugging and golden tests.
  std::string ToString() const;

  size_t Hash() const;

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

struct DynamicBitsetHash {
  size_t operator()(const DynamicBitset& b) const { return b.Hash(); }
};

}  // namespace relspec

#endif  // RELSPEC_BASE_BITSET_H_
