#ifndef ALC_UTIL_RING_BUFFER_H_
#define ALC_UTIL_RING_BUFFER_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace alc::util {

/// Vector-backed FIFO queue: push_back appends, pop_front advances a head
/// index, and the dead prefix is compacted (one bulk move) only when it
/// outgrows the live part. Unlike std::deque this allocates nothing at
/// steady state (capacity is retained across drain/refill cycles) and
/// nothing at construction — which matters when thousands of queues are
/// embedded in per-item records, as in the lock table.
///
/// Iteration (begin/end) covers the live range front-to-back; erase()
/// removes an arbitrary element by shifting the tail left, preserving FIFO
/// order of the rest.
template <typename T>
class RingBuffer {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }

  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }

  T& back() { return items_.back(); }
  const T& back() const { return items_.back(); }

  void push_back(T value) { items_.push_back(std::move(value)); }

  void reserve(size_t capacity) { items_.reserve(capacity); }

  void pop_back() {
    items_.pop_back();
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }

  /// Inserts at the front. O(1) while the compacted prefix has dead slots
  /// (the common case after any pop_front); degrades to one bulk shift when
  /// the head is already at the storage origin.
  void push_front(T value) {
    if (head_ > 0) {
      items_[--head_] = std::move(value);
    } else {
      items_.insert(items_.begin(), std::move(value));
    }
  }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    items_.emplace_back(std::forward<Args>(args)...);
  }

  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= kCompactMin && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  T* begin() { return items_.data() + head_; }
  T* end() { return items_.data() + items_.size(); }
  const T* begin() const { return items_.data() + head_; }
  const T* end() const { return items_.data() + items_.size(); }

  /// Removes the element at `pos` (a pointer into [begin, end)), shifting
  /// the elements behind it forward.
  void erase(T* pos) {
    items_.erase(items_.begin() + (pos - items_.data()));
  }

 private:
  /// Below this many dead slots compaction is not worth the move.
  static constexpr size_t kCompactMin = 32;

  std::vector<T> items_;
  size_t head_ = 0;
};

}  // namespace alc::util

#endif  // ALC_UTIL_RING_BUFFER_H_
