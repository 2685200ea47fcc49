#ifndef BRYQL_COMMON_SLOT_TABLE_H_
#define BRYQL_COMMON_SLOT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bryql {

/// The hash index of a flat row store: an open-addressing table of 8-byte
/// slots, each a 32-bit row id into the owner's row storage and 32 bits of
/// that row's hash. The table never sees a row; the owner stores rows and
/// answers "is row r the one I am looking for?" through the `same`
/// callback of Find. Relation (storage) and TupleTable (the batched
/// engine's joins and seen-sets) index their rows with it; a Relation's
/// column indexes index ids of their own (key ids) the same way.
///
/// Power-of-two sized, load <= 1/2, linear probing, no deletion; empty
/// (no allocation) until the first Place. Row id 2^32 - 1 is never valid,
/// so an owner holds at most kMaxRows rows.
class SlotTable {
 public:
  static constexpr uint32_t kNoRow = 0xFFFFFFFFu;
  static constexpr size_t kMaxRows = 0xFFFFFFFFu;
  /// What Find returns while the table has no slots.
  static constexpr size_t kNoSlot = ~size_t{0};

  SlotTable() = default;
  SlotTable(const SlotTable&) = default;
  SlotTable& operator=(const SlotTable&) = default;
  /// A moved-from table is empty, like the moved-from rows of its owner.
  SlotTable(SlotTable&& other) noexcept
      : slots_(std::move(other.slots_)), used_(std::exchange(other.used_, 0)) {
    other.slots_.clear();
  }
  SlotTable& operator=(SlotTable&& other) noexcept {
    slots_ = std::move(other.slots_);
    used_ = std::exchange(other.used_, 0);
    other.slots_.clear();
    return *this;
  }

  /// The high half of a 64-bit row hash times a 64-bit odd constant: well
  /// mixed in its low bits too, which pick the home slot.
  static uint32_t Mix(size_t hash) {
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ull) >> 32);
  }

  /// The slot holding a row stored under `hash` that `same(row)` accepts,
  /// or the free slot where such a row would go; kNoSlot while empty.
  template <typename Same>
  size_t Find(uint32_t hash, const Same& same) const {
    if (slots_.empty()) return kNoSlot;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint64_t slot = slots_[i];
      if (slot == kEmptySlot ||
          (SlotHash(slot) == hash && same(SlotRow(slot)))) {
        return i;
      }
    }
  }

  /// The row in slot `at`, or kNoRow for a free slot or kNoSlot.
  uint32_t RowAt(size_t at) const {
    return at == kNoSlot ? kNoRow : SlotRow(slots_[at]);
  }

  /// Records `row` under `hash` in `at`, the free slot Find returned (or
  /// kNoSlot). Grows first when one more entry would pass half load; the
  /// new entry then goes to the first free slot from its home, as no
  /// stored row matches it.
  void Place(size_t at, uint32_t hash, uint32_t row) {
    if (2 * (used_ + 1) > slots_.size()) {
      Grow();
      at = FreeSlot(hash);
    }
    slots_[at] = (static_cast<uint64_t>(hash) << 32) | row;
    ++used_;
  }

  /// Points the occupied slot `at` at another row of the same hash.
  void Repoint(size_t at, uint32_t row) {
    slots_[at] = (slots_[at] & ~uint64_t{0xFFFFFFFFu}) | row;
  }

  /// Forgets every entry but keeps the slot array for reuse.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    used_ = 0;
  }

 private:
  /// All ones: row id kNoRow under hash 2^32 - 1, never a real entry.
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};
  static constexpr size_t kMinSlots = 8;

  static uint32_t SlotHash(uint64_t slot) {
    return static_cast<uint32_t>(slot >> 32);
  }
  static uint32_t SlotRow(uint64_t slot) {
    return static_cast<uint32_t>(slot);
  }

  size_t FreeSlot(uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    return i;
  }

  /// Doubles the slot array (or creates it), re-placing every slot from
  /// its stored hash; no row is hashed again.
  void Grow() {
    std::vector<uint64_t> old(std::max(kMinSlots, 2 * slots_.size()),
                              kEmptySlot);
    old.swap(slots_);
    for (uint64_t slot : old) {
      if (slot != kEmptySlot) slots_[FreeSlot(SlotHash(slot))] = slot;
    }
  }

  std::vector<uint64_t> slots_;
  size_t used_ = 0;
};

}  // namespace bryql

#endif  // BRYQL_COMMON_SLOT_TABLE_H_
