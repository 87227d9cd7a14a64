#include "sim/event_queue.h"

#include <algorithm>

#include "util/check.h"

namespace alc::sim {
namespace {

/// Below this many stored entries compaction is not worth the pass; lazy
/// dropping in the ready run handles small queues fine.
constexpr size_t kCompactMinEntries = 64;

/// Pre-sized for the paper-scale system (a few hundred in-flight events).
/// A queue of at most 64 entries never grows its arena.
constexpr size_t kInitialSlots = 1024;
constexpr int kInitialStrideLog2 = 6;

/// Index of the highest set bit; `bits` must be non-zero.
int HighBit(uint64_t bits) { return 63 - __builtin_clzll(bits); }
int LowBit(uint64_t bits) { return __builtin_ctzll(bits); }

}  // namespace

EventQueue::EventQueue()
    : arena_(new Entry[size_t{kSegments} << kInitialStrideLog2]),
      stride_log2_(kInitialStrideLog2) {
  slots_.reserve(kInitialSlots);
  free_slots_.reserve(kInitialSlots);
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.cell.Reset();
  // Stamping the slot free is the cancellation/consumption: outstanding
  // handles and the queue entry both carry the old sequence and now fail
  // the O(1) liveness check.
  s.live_seq = 0;
  free_slots_.push_back(slot);
}

void EventQueue::Grow() {
  const int log2 = stride_log2_ + 1;
  std::unique_ptr<Entry[]> arena(new Entry[size_t{kSegments} << log2]);
  for (int k = 0; k < kReady; ++k) {
    std::copy_n(Segment(k), size_[k],
                arena.get() + (static_cast<size_t>(k) << log2));
  }
  Entry* const ready = Segment(kReady);
  std::copy(ready + ready_head_, ready + size_[kReady],
            arena.get() + (size_t{kReady} << log2));
  size_[kReady] -= ready_head_;
  ready_head_ = 0;
  arena_ = std::move(arena);
  stride_log2_ = log2;
}

EventHandle EventQueue::FinishPush(double time, uint32_t slot) {
  // time >= 0 keeps the bit-pattern order valid (rejects NaN too); +0.0
  // canonicalizes a negative zero, whose bits would misorder.
  ALC_CHECK_GE(time, 0.0);
  const uint64_t seq = next_seq_++;
  ALC_DCHECK(seq < uint64_t{1} << (64 - kSlotBits));
  ALC_DCHECK(slot <= kSlotMask);
  slots_[slot].live_seq = seq;
  const uint64_t key = (seq << kSlotBits) | slot;
  const Entry entry{TimeBits(time + 0.0), key};
  // Every segment holds at most entry_count_ entries, so keeping the stride
  // above it keeps every append in bounds.
  const uint32_t stride = uint32_t{1} << stride_log2_;
  if (entry_count_ == stride) Grow();
  if (entry.tbits < base_) Rebase(entry.tbits);
  if (entry.tbits == base_) {
    // The newest sequence: appending keeps the ready run in key order. A
    // full ready segment has a consumed prefix (its live part is below the
    // stride); drop it first.
    Entry* const ready = Segment(kReady);
    if (size_[kReady] == stride) {
      std::copy(ready + ready_head_, ready + size_[kReady], ready);
      size_[kReady] -= ready_head_;
      ready_head_ = 0;
    }
    ready[size_[kReady]++] = entry;
  } else {
    Append(HighBit(entry.tbits ^ base_), entry);
  }
  ++entry_count_;
  ++live_count_;
  return EventHandle{key};
}

void EventQueue::Rebase(uint64_t tbits) {
  // Every stored entry is >= base_ > tbits. With h the highest bit in which
  // base_ and tbits differ (set in base_), entries of buckets above h keep
  // their bucket, and entries below h or in the ready run agree with base_
  // at bit h, so they all move to bucket h — which is empty, because an
  // entry there would have bit h clear and so precede base_.
  const int h = HighBit(base_ ^ tbits);
  ALC_DCHECK(size_[h] == 0);
  const uint64_t below = (uint64_t{1} << h) - 1;
  for (uint64_t left = occupied_ & below; left != 0; left &= left - 1) {
    const int k = LowBit(left);
    const Entry* const from = Segment(k);
    for (uint32_t i = 0; i < size_[k]; ++i) Append(h, from[i]);
    size_[k] = 0;
  }
  occupied_ &= ~below;
  const Entry* const ready = Segment(kReady);
  for (uint32_t i = ready_head_; i < size_[kReady]; ++i) Append(h, ready[i]);
  size_[kReady] = 0;
  ready_head_ = 0;
  base_ = tbits;
  ++rebases_;
}

void EventQueue::Redistribute() const {
  ALC_DCHECK(occupied_ != 0);
  const int lowest = LowBit(occupied_);
  const Entry* const from = Segment(lowest);
  const uint32_t count = size_[lowest];
  uint64_t min = ~uint64_t{0};
  for (uint32_t i = 0; i < count; ++i) min = std::min(min, from[i].tbits);
  // Entries of the lowest bucket agree with the old base above their
  // bucket bit and all have it set, so relative to their minimum each one
  // lands strictly lower (never back in this segment).
  base_ = min;
  size_[lowest] = 0;
  occupied_ &= occupied_ - 1;
  Entry* const ready = Segment(kReady);
  uint32_t ties = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const Entry entry = from[i];
    if (entry.tbits == min) {
      ready[ties++] = entry;
    } else {
      Append(HighBit(entry.tbits ^ min), entry);
    }
  }
  // Equal times share a segment and every move keeps segment order, so
  // the ties arrive in key order (see the class comment).
  ALC_DCHECK(std::is_sorted(
      ready, ready + ties,
      [](const Entry& a, const Entry& b) { return a.key < b.key; }));
  size_[kReady] = ties;
  ready_head_ = 0;
}

void EventQueue::Settle() const {
  ALC_CHECK(live_count_ > 0);
  for (;;) {
    const Entry* const ready = Segment(kReady);
    while (ready_head_ < size_[kReady]) {
      if (!EntryDead(ready[ready_head_])) return;
      ++ready_head_;
      --entry_count_;
    }
    Redistribute();
  }
}

void EventQueue::Clear() {
  for (uint64_t left = occupied_; left != 0; left &= left - 1) {
    size_[LowBit(left)] = 0;
  }
  occupied_ = 0;
  size_[kReady] = 0;
  ready_head_ = 0;
  base_ = 0;
  entry_count_ = 0;
}

bool EventQueue::Cancel(EventHandle handle) {
  // gen() == 0 never identifies a live event (sequences start at 1); it
  // would compare equal to a free slot's cleared stamp and double-free it.
  if (!handle.valid() || handle.gen() == 0) return false;
  const uint32_t slot = handle.slot();
  if (slot >= slots_.size()) return false;
  if (slots_[slot].live_seq != handle.gen()) return false;
  ReleaseSlot(slot);
  if (--live_count_ == 0) {
    Clear();
  } else {
    CompactIfWorthIt();
  }
  return true;
}

void EventQueue::CompactIfWorthIt() {
  if (entry_count_ < kCompactMinEntries) return;
  if ((entry_count_ - live_count_) * 2 <= entry_count_) return;
  // Tombstones outnumber live entries: filter them out in one pass. The
  // ready run keeps its (key) order; the order inside a bucket never
  // matters, so the queue pops in exactly the same sequence.
  const auto dead = [this](const Entry& entry) { return EntryDead(entry); };
  Entry* const ready = Segment(kReady);
  Entry* const kept =
      std::remove_if(ready + ready_head_, ready + size_[kReady], dead);
  if (ready_head_ > 0) std::copy(ready + ready_head_, kept, ready);
  size_[kReady] = static_cast<uint32_t>(kept - ready) - ready_head_;
  ready_head_ = 0;
  for (uint64_t left = occupied_; left != 0; left &= left - 1) {
    const int k = LowBit(left);
    Entry* const bucket = Segment(k);
    size_[k] = static_cast<uint32_t>(
        std::remove_if(bucket, bucket + size_[k], dead) - bucket);
    if (size_[k] == 0) occupied_ &= ~(uint64_t{1} << k);
  }
  entry_count_ = live_count_;
  ++compactions_;
}

double EventQueue::PeekTime() const {
  Settle();
  return BitsTime(base_);
}

EventQueue::Fired EventQueue::Pop() {
  Settle();
  const Entry top = Segment(kReady)[ready_head_++];
  --entry_count_;
  const uint32_t slot = static_cast<uint32_t>(top.key & kSlotMask);
  // Move the payload out and free the slot before the caller invokes it:
  // the callable may push new events that reuse the slot or grow the table.
  Fired fired{BitsTime(top.tbits), std::move(slots_[slot].cell)};
  ReleaseSlot(slot);
  if (--live_count_ == 0) Clear();
  return fired;
}

}  // namespace alc::sim
