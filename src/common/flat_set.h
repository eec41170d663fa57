// Flat sets for the per-instance and per-cluster paths of a plan.
//
// KeySet is an open-addressing set of 64-bit keys (R in XAssembly, result
// deduplication); PageSet is a growable bitset over small dense ids
// (logical page numbers). Both store their members in one contiguous
// array, so inserting costs no allocation beyond the occasional doubling.
// Neither offers unordered iteration: a KeySet cannot be iterated at all,
// and a PageSet is walked in ascending id order only, so no hash order can
// reach a result.
#ifndef NAVPATH_COMMON_FLAT_SET_H_
#define NAVPATH_COMMON_FLAT_SET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace navpath {

/// splitmix64 finalizer: a cheap bijective mix whose low bits depend on
/// every input bit, so masking it to a power-of-two table size is safe.
inline std::uint64_t SplitMix64(std::uint64_t x) {
  std::uint64_t z = x + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Set of uint64 keys: power-of-two table, linear probing, load <= 1/2.
/// Slot value 0 marks an empty slot; the key 0 itself is tracked by a
/// separate flag, so every uint64 value is a valid key.
class KeySet {
 public:
  /// Adds `key`; true when it was not yet a member.
  bool insert(std::uint64_t key) {
    if (key == kEmptySlot) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      return true;
    }
    if ((slotted_ + 1) * 2 > slots_.size()) Grow();
    const std::size_t i = SlotOf(key);
    if (slots_[i] == key) return false;
    slots_[i] = key;
    ++slotted_;
    return true;
  }

  bool contains(std::uint64_t key) const {
    if (key == kEmptySlot) return has_empty_key_;
    if (slots_.empty()) return false;
    return slots_[SlotOf(key)] == key;
  }

  std::size_t size() const { return slotted_ + (has_empty_key_ ? 1 : 0); }
  /// Table slots currently allocated (0 after clear()).
  std::size_t capacity() const { return slots_.size(); }

  /// Empties the set and releases its table.
  void clear() {
    std::vector<std::uint64_t>().swap(slots_);
    slotted_ = 0;
    has_empty_key_ = false;
  }

 private:
  static constexpr std::uint64_t kEmptySlot = 0;
  static constexpr std::size_t kMinCapacity = 16;

  /// Index of the slot holding `key`, or of the empty slot where it would
  /// go. Requires a non-empty table with at least one empty slot.
  std::size_t SlotOf(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(SplitMix64(key)) & mask;
    while (slots_[i] != kEmptySlot && slots_[i] != key) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<std::uint64_t> old;
    old.swap(slots_);
    slots_.assign(old.empty() ? kMinCapacity : old.size() * 2, kEmptySlot);
    for (const std::uint64_t key : old) {
      if (key != kEmptySlot) slots_[SlotOf(key)] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t slotted_ = 0;  // keys held in slots_ (all but key 0)
  bool has_empty_key_ = false;
};

/// Set of small dense ids (logical page numbers) as a bitset that grows
/// to the largest id inserted. Walk it in ascending order with
/// NextAtOrAfter; erasing the id just returned does not disturb the walk.
class PageSet {
 public:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// Adds `id`; true when it was not yet a member.
  bool insert(std::uint32_t id) {
    const std::size_t w = id >> 6;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const std::uint64_t bit = 1ull << (id & 63);
    if (words_[w] & bit) return false;
    words_[w] |= bit;
    ++size_;
    return true;
  }

  /// Removes `id`; true when it was a member.
  bool erase(std::uint32_t id) {
    const std::size_t w = id >> 6;
    const std::uint64_t bit = 1ull << (id & 63);
    if (w >= words_.size() || !(words_[w] & bit)) return false;
    words_[w] &= ~bit;
    --size_;
    return true;
  }

  bool contains(std::uint32_t id) const {
    const std::size_t w = id >> 6;
    return w < words_.size() && (words_[w] >> (id & 63)) & 1;
  }

  /// Smallest member >= `id`, or kNone.
  std::uint32_t NextAtOrAfter(std::uint32_t id) const {
    std::size_t w = id >> 6;
    if (w >= words_.size()) return kNone;
    std::uint64_t bits = words_[w] & (~0ull << (id & 63));
    while (bits == 0) {
      if (++w == words_.size()) return kNone;
      bits = words_[w];
    }
    return static_cast<std::uint32_t>((w << 6) + std::countr_zero(bits));
  }

  std::size_t size() const { return size_; }

  void clear() {
    words_.clear();
    size_ = 0;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace navpath

#endif  // NAVPATH_COMMON_FLAT_SET_H_
