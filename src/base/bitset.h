// DynamicBitset: a fixed-universe, heap-backed bitset.
//
// The fixpoint machinery in src/core represents the "state" of a term — the
// set of atoms of the grounded universe true at that term — as a
// DynamicBitset. States are hashed (they key the subtree-closure table and
// the state-equivalence relation of the paper, Section 3.1), unioned, and
// compared for subset inclusion in inner loops, so those operations are
// word-parallel.
//
// BitView is the non-owning form: a universe size and a pointer to its
// words, which may be a DynamicBitset's or one stride of a word arena (the
// chi table's values, the label graph's cluster labels). It reads like a
// DynamicBitset and hashes and compares equal to one with the same bits,
// so an index can key arena rows and look them up with either.

#ifndef RELSPEC_BASE_BITSET_H_
#define RELSPEC_BASE_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace relspec {

/// A read-only view of a set over [0, size): NumWords(size) words, bit i of
/// the set being bit i % 64 of word i / 64. Valid while those words are.
class BitView {
 public:
  BitView(const uint64_t* words, size_t size) : words_(words), size_(size) {}

  size_t size() const { return size_; }
  std::span<const uint64_t> words() const {
    return {words_, (size_ + 63) / 64};
  }

  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1u; }
  size_t Count() const;
  bool None() const;
  bool Any() const { return !None(); }
  /// True if every element of this set is also in `other`.
  /// Precondition: same universe size.
  bool IsSubsetOf(BitView other) const;

  /// Calls f(i) for each element i in increasing order.
  template <typename F>
  void ForEach(F&& f) const {
    const size_t n = words().size();
    for (size_t w = 0; w < n; ++w) {
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
  /// FNV-1a over the words, then the universe size: equal to
  /// DynamicBitset::Hash of the same set.
  size_t Hash() const;

  friend bool operator==(BitView a, BitView b);
  friend bool operator!=(BitView a, BitView b) { return !(a == b); }

 private:
  const uint64_t* words_ = nullptr;
  size_t size_ = 0;
};

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
  /// A copy of the viewed set.
  explicit DynamicBitset(BitView v) : DynamicBitset(v.size(), v.words()) {}

  operator BitView() const { return {words_.data(), size_}; }
  /// Makes this a copy of the viewed set, reusing the storage when the
  /// universe is the same.
  void Assign(BitView v) {
    size_ = v.size();
    words_.assign(v.words().begin(), v.words().end());
  }

  /// The words a set over [0, size) occupies.
  static size_t NumWords(size_t size) { return (size + 63) / 64; }

  size_t size() const { return size_; }
  std::span<const uint64_t> words() const { return words_; }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  /// Number of elements in the set (popcount).
  size_t Count() const { return BitView(*this).Count(); }
  bool None() const { return BitView(*this).None(); }
  bool Any() const { return !None(); }

  /// True if every element of this set is also in `other`.
  /// Precondition: same universe size.
  bool IsSubsetOf(BitView other) const {
    return BitView(*this).IsSubsetOf(other);
  }

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
    BitView(*this).ForEach(std::forward<F>(f));
  }

  /// Elements in increasing order.
  std::vector<size_t> ToVector() const { return BitView(*this).ToVector(); }

  /// "{1,5,9}" — for debugging and golden tests.
  std::string ToString() const { return BitView(*this).ToString(); }

  size_t Hash() const { return BitView(*this).Hash(); }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

struct DynamicBitsetHash {
  size_t operator()(const DynamicBitset& b) const { return b.Hash(); }
};

}  // namespace relspec

#endif  // RELSPEC_BASE_BITSET_H_
