#ifndef BRYQL_COMMON_BATCH_H_
#define BRYQL_COMMON_BATCH_H_

#include <cstddef>
#include <vector>

#include "storage/tuple.h"

namespace bryql {

/// Default number of tuples a physical operator transfers per NextBatch
/// call. 1024 keeps the per-tuple virtual-dispatch cost amortized to
/// ~1/1000th of the tuple-at-a-time engine while a batch of small tuples
/// (a few dozen bytes each) still fits comfortably in L2.
inline constexpr size_t kDefaultBatchSize = 1024;

/// A bounded buffer of tuples — the unit of data flow between physical
/// operators. The capacity is a *request*: producers fill at most
/// `capacity()` tuples per NextBatch call, and consumers that need early
/// termination (the paper's first-witness non-emptiness test, §3.2) shrink
/// it — a capacity-1 batch degrades gracefully to tuple-at-a-time pulls
/// that admit no row past the first witness.
///
/// Slots are recycled: Clear() resets the logical size but keeps every
/// Tuple object (and its heap storage) alive, and AddSlot() hands the
/// next recycled slot back to the producer. Copy-assigning a tuple into
/// a warm slot reuses its allocation, so a steady-state batch pipeline
/// performs no per-tuple allocations.
/// Between operators a row changes hands by std::swap rather than by
/// copy: the consumer's warm tuple goes back into the slot, so the next
/// refill writes into storage that is already there.
class TupleBatch {
 public:
  explicit TupleBatch(size_t capacity = kDefaultBatchSize)
      : capacity_(capacity == 0 ? 1 : capacity) {
    tuples_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  /// Logical reset; slots (and their storage) stay warm for reuse.
  void Clear() { size_ = 0; }

  /// The next recycled output slot. Fill it in place: copy-assign a row
  /// that must stay where it is, swap in one that is passed on, or build
  /// the row in it. Moving a tuple into it would discard its storage.
  Tuple* AddSlot() {
    if (size_ == tuples_.size()) tuples_.emplace_back();
    return &tuples_[size_++];
  }

  /// Gives back the slot the last AddSlot() returned, e.g. when the row
  /// built in it turns out to be a duplicate. Its storage stays warm for
  /// the next AddSlot().
  void PopSlot() { --size_; }

  const Tuple& operator[](size_t i) const { return tuples_[i]; }
  Tuple& operator[](size_t i) { return tuples_[i]; }

 private:
  size_t capacity_;
  size_t size_ = 0;
  std::vector<Tuple> tuples_;
};

}  // namespace bryql

#endif  // BRYQL_COMMON_BATCH_H_
