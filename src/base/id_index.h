// IdIndex: a hash index over dense uint32_t ids whose keys live elsewhere.
//
// The chi table keys its entries by seed and Algorithm Q its clusters by
// label. Both keys already sit in a table the id indexes (a seed arena, the
// cluster list), so the index stores no key: each slot holds an id and 32
// bits of its key's hash, and a probe compares those bits, then asks the
// caller to compare the key in place. A lookup or an insert copies no key
// and allocates nothing except when the slot array doubles.
//
// Open addressing with linear probing over a power-of-two slot array kept at
// most half full. The caller's hash is mixed before use, so a hash with weak
// low bits (FNV-1a over words) still spreads. Nothing iterates the index, so
// no id, output byte or golden can depend on the hash function.

#ifndef RELSPEC_BASE_ID_INDEX_H_
#define RELSPEC_BASE_ID_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace relspec {

class IdIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The stored id whose key has hash `hash` and satisfies `equals(id)`, or
  /// kNone. `equals` compares the probe key with id's key in place.
  template <typename KeyEquals>
  uint32_t Find(uint64_t hash, KeyEquals&& equals) const {
    if (slots_.empty()) return kNone;
    const uint32_t tag = Tag(hash);
    const size_t mask = slots_.size() - 1;
    for (size_t i = tag & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == kNone) return kNone;
      if (slot.tag == tag && equals(slot.id)) return slot.id;
    }
  }

  /// Stores `id` under `hash`. The caller has found no equal key.
  void Insert(uint64_t hash, uint32_t id) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Place(Slot{id, Tag(hash)});
    ++size_;
  }

  /// Sizes the slot array for `n` ids, so that inserting them never grows.
  void Reserve(size_t n) {
    size_t slots = slots_.empty() ? 16 : slots_.size();
    while (slots < 2 * n) slots *= 2;
    if (slots > slots_.size()) Rehash(slots);
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint32_t id = kNone;
    uint32_t tag = 0;
  };

  /// The low 32 bits of the splitmix64 finalizer of `hash`.
  static uint32_t Tag(uint64_t hash) {
    hash = (hash ^ (hash >> 30)) * 0xbf58476d1ce4e5b9ull;
    hash = (hash ^ (hash >> 27)) * 0x94d049bb133111ebull;
    return static_cast<uint32_t>(hash ^ (hash >> 31));
  }

  void Place(Slot slot) {
    const size_t mask = slots_.size() - 1;
    size_t i = slot.tag & mask;
    while (slots_[i].id != kNone) i = (i + 1) & mask;
    slots_[i] = slot;
  }

  void Grow() { Rehash(slots_.empty() ? 16 : 2 * slots_.size()); }

  void Rehash(size_t num_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(num_slots, Slot{});
    for (const Slot& slot : old) {
      if (slot.id != kNone) Place(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace relspec

#endif  // RELSPEC_BASE_ID_INDEX_H_
