// Lazily-allocated ring-buffer FIFO for the packet path.
//
// `std::deque` allocates its map and first block on *construction* — two
// heap allocations per deque before anything is enqueued.  A fabric
// materializes hundreds of thousands of queues and pipes (k=32: ~100k
// objects, most of which never buffer a packet in a given run), so those
// eager allocations dominated `fabric_instance` stamping.  A `ring_fifo`
// allocates nothing until the first push, grows by doubling (power-of-two
// capacity, index masking), and on the hot path replaces the deque's
// segment-map indirection with one masked array access.
//
// Supports exactly the operations the queues and pipes use: push/emplace at
// the back, pop at the front (FIFO) or back (NDP tail trim), front/back
// peeks, size/empty.  `T` must be default-constructible and assignable
// (packet pointers and small PODs here).
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "sim/assert.h"

namespace ndpsim {

template <typename T>
class ring_fifo {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push_back(const T& v) { emplace_back(v); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow();
    T& slot = buf_[(head_ + size_) & (cap_ - 1)];
    slot = T(std::forward<Args>(args)...);
    ++size_;
    return slot;
  }

  [[nodiscard]] T& front() {
    NDPSIM_ASSERT_MSG(size_ > 0, "front() on empty ring_fifo");
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    NDPSIM_ASSERT_MSG(size_ > 0, "front() on empty ring_fifo");
    return buf_[head_];
  }
  [[nodiscard]] T& back() {
    NDPSIM_ASSERT_MSG(size_ > 0, "back() on empty ring_fifo");
    return buf_[(head_ + size_ - 1) & (cap_ - 1)];
  }
  [[nodiscard]] const T& back() const {
    NDPSIM_ASSERT_MSG(size_ > 0, "back() on empty ring_fifo");
    return buf_[(head_ + size_ - 1) & (cap_ - 1)];
  }

  void pop_front() {
    NDPSIM_ASSERT_MSG(size_ > 0, "pop_front() on empty ring_fifo");
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }
  void pop_back() {
    NDPSIM_ASSERT_MSG(size_ > 0, "pop_back() on empty ring_fifo");
    --size_;
  }

  /// i-th element from the front (0 = front()).  Used by the event list's
  /// tag renumbering, which must walk lane entries in FIFO order.
  [[nodiscard]] T& at(std::size_t i) {
    NDPSIM_ASSERT_MSG(i < size_, "ring_fifo index out of range");
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    NDPSIM_ASSERT_MSG(i < size_, "ring_fifo index out of range");
    return buf_[(head_ + i) & (cap_ - 1)];
  }

  /// Remove every element equal to `v`, preserving the relative order of
  /// the rest.  O(size) compaction — teardown-path only (e.g. the pull
  /// pacer eagerly dropping a destroyed sink's ring entry), never per
  /// event.
  std::size_t erase_value(const T& v) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      T& e = buf_[(head_ + i) & (cap_ - 1)];
      if (e == v) continue;
      if (kept != i) buf_[(head_ + kept) & (cap_ - 1)] = std::move(e);
      ++kept;
    }
    const std::size_t removed = size_ - kept;
    size_ = kept;
    return removed;
  }

  /// Pre-size the buffer to at least `n` slots (rounded up to a power of
  /// two) so a known burst does not pay doubling-growth copies mid-run.
  void reserve(std::size_t n) {
    if (n <= cap_) return;
    std::size_t new_cap = cap_ == 0 ? 8 : cap_;
    while (new_cap < n) new_cap *= 2;
    grow_to(new_cap);
  }

 private:
  void grow() { grow_to(cap_ == 0 ? 8 : cap_ * 2); }

  void grow_to(std::size_t new_cap) {
    // for_overwrite: every slot is written by the move loop or a later
    // guarded push; zero-filling the new buffer would be pure overhead.
    auto fresh = std::make_unique_for_overwrite<T[]>(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      fresh[i] = std::move(buf_[(head_ + i) & (cap_ - 1)]);
    }
    buf_ = std::move(fresh);
    cap_ = new_cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ndpsim
