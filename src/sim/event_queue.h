#ifndef ALC_SIM_EVENT_QUEUE_H_
#define ALC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_cell.h"

namespace alc::sim {

/// Handle identifying a scheduled event, used for cancellation. Packs the
/// slot that stores the event's payload and the event's unique sequence
/// number (its generation stamp): the slot records the sequence of the
/// event currently occupying it, so a stale handle — the event fired, was
/// cancelled, or the slot was reused — fails an O(1) equality check with no
/// side table. Zero is the invalid handle (sequences start at 1).
struct EventHandle {
  /// seq occupies the high 40 bits of the key (about 10^12 events per
  /// queue), the slot index the low 24 (about 16M concurrently scheduled
  /// events). Shared with EventQueue's entry encoding.
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;

  uint64_t key = 0;
  bool valid() const { return key != 0; }
  uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
  uint64_t gen() const { return key >> kSlotBits; }
};

/// Time-ordered queue of callables. Events with equal timestamps fire in
/// scheduling order (stable), which makes runs deterministic.
///
/// Layout: a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan 1990) over the
/// IEEE-754 bits of the event time. Entries are 16-byte PODs {time bits,
/// seq|slot}; payloads live in a generation-stamped slot table on the side.
/// The queue keeps a base, the time of the last popped event. Entries equal
/// to the base sit in the ready run, in key (= scheduling) order; every other
/// entry sits in bucket k, where k is the highest bit in which its time
/// differs from the base. Every entry of bucket k precedes every entry of
/// bucket k+1, so a push is one XOR and an append, and a pop that finds the
/// ready run empty advances the base to the minimum of the lowest non-empty
/// bucket and redistributes that bucket only: each of its entries moves to a
/// strictly lower (so far empty) bucket, or into the ready run if it ties the
/// new minimum. Entries of equal time always share a segment, and pushes
/// append the newest key while every move, re-base and compaction keeps
/// segment order, so equal times stay in key order without a sort. There are
/// no comparisons between unrelated events and no data-dependent sift paths.
///
/// Monotone contract: simulated time never runs backwards, so pushes land at
/// or after the base. A push before the base (at a RunUntil boundary, after
/// PeekTime has advanced the base to an event past `until`) is still ordered
/// exactly: it re-bases the queue by moving the buckets below the highest
/// differing bit, and the ready run, into that bucket — no allocation. A
/// drained queue resets its base to 0.
///
/// Storage: the 64 buckets and the ready run are fixed-stride segments of
/// one arena, each as long as the most entries the queue has held, so no
/// segment can overflow and the arena grows only with that high-water mark;
/// pages a segment never reaches are never touched. Cancellation stamps the
/// slot free and destroys the payload immediately; the entry becomes a
/// tombstone that is dropped when it reaches the ready run, or in bulk when
/// tombstones outnumber live entries (compaction). Push/cancel/pop are
/// allocation-free at steady state: all storage is reused arrays plus the
/// cells' inline buffers.
class EventQueue {
 public:
  /// Storage cell for one scheduled event. 72 inline bytes: enough for an
  /// owner pointer plus a moved-in EventCell payload (the CPU/disk
  /// completion pattern), so chained continuations stay allocation-free.
  using Cell = BasicEventCell<72>;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `time`. Returns a handle for Cancel().
  /// The callable is constructed directly in its slot (no temporary cell).
  template <typename F>
  EventHandle Push(double time, F&& fn) {
    const uint32_t slot = AcquireSlot();
    slots_[slot].cell.Emplace(std::forward<F>(fn));
    return FinishPush(time, slot);
  }

  /// Cancels the event if it has not fired: the payload is destroyed now,
  /// the queue entry is tombstoned in place. Returns true if it was live.
  bool Cancel(EventHandle handle);

  /// True if no live events remain (tombstone-aware: cancelled events never
  /// count, whether or not their entries have been dropped yet).
  bool empty() const { return live_count_ == 0; }

  size_t live_count() const { return live_count_; }

  /// Time of the earliest live event. Requires !empty(). May advance the
  /// base to that time (see the monotone contract above).
  double PeekTime() const;

  /// Removes and returns the earliest live event. Requires !empty().
  struct Fired {
    double time;
    Cell cell;
  };
  Fired Pop();

  /// Introspection for tests and benchmarks.
  size_t entry_count() const { return entry_count_; }
  size_t slot_count() const { return slots_.size(); }
  uint64_t compactions() const { return compactions_; }
  /// Pushes that landed before the base and re-based the queue.
  uint64_t rebases() const { return rebases_; }

 private:
  /// Entry keys use EventHandle's seq/slot packing. Comparing keys
  /// compares sequences: seq is unique, so the (time, key) order is a
  /// strict total order and the pop sequence is independent of how the
  /// entries are spread over buckets — compaction cannot reorder fires.
  static constexpr int kSlotBits = EventHandle::kSlotBits;
  static constexpr uint32_t kSlotMask = EventHandle::kSlotMask;

  /// Event times are required to be >= 0 (virtual time), so their IEEE-754
  /// bit patterns order identically to the doubles themselves when compared
  /// as unsigned integers, and the highest differing bit of two patterns
  /// names a radix bucket.
  struct Entry {
    uint64_t tbits;  // bit pattern of the (non-negative) event time
    uint64_t key;    // (seq << kSlotBits) | slot
  };
  struct Slot {
    /// Sequence of the occupying event; 0 when free (tombstone marker).
    /// First member so the liveness probe warms the payload's cache line.
    uint64_t live_seq = 0;
    Cell cell;
  };

  /// Segment index of the ready run; 0..63 are the buckets.
  static constexpr int kReady = 64;
  static constexpr int kSegments = 65;

  static uint64_t TimeBits(double time) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(time));
    std::memcpy(&bits, &time, sizeof(bits));
    return bits;
  }
  static double BitsTime(uint64_t bits) {
    double time;
    std::memcpy(&time, &bits, sizeof(time));
    return time;
  }

  bool EntryDead(const Entry& entry) const {
    return slots_[entry.key & kSlotMask].live_seq != entry.key >> kSlotBits;
  }

  uint32_t AcquireSlot() {
    if (!free_slots_.empty()) {
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  /// Non-template tail of Push (bucket insertion + handle construction);
  /// the slot's cell must already hold the payload.
  EventHandle FinishPush(double time, uint32_t slot);
  void ReleaseSlot(uint32_t slot);

  /// The ordering structure's operations are const: they move entries
  /// between segments and drop tombstones (whose slots were already
  /// released), never changing the live set, so const PeekTime can use them.
  Entry* Segment(int index) const {
    return arena_.get() + (static_cast<size_t>(index) << stride_log2_);
  }
  void Append(int bucket, const Entry& entry) const {
    Segment(bucket)[size_[bucket]++] = entry;
    occupied_ |= uint64_t{1} << bucket;
  }
  /// Doubles the segment stride, keeping every segment's live entries.
  void Grow();
  /// Makes the head of the ready run the earliest live entry. Requires a
  /// live entry.
  void Settle() const;
  /// Advances the base to the minimum of the lowest non-empty bucket and
  /// redistributes that bucket below it.
  void Redistribute() const;
  /// Moves the base down to `tbits` (a push before the base).
  void Rebase(uint64_t tbits);
  /// Drops every entry (all tombstones) and resets the base to 0.
  void Clear();
  void CompactIfWorthIt();

  /// Radix structure, mutable so that const peeks can advance the base and
  /// drop tombstones lazily. Segment k < 64 holds size_[k] entries whose
  /// highest bit differing from base_ is k, and bit k of occupied_ is set iff
  /// it is non-empty; the ready run is Segment(kReady)[ready_head_,
  /// size_[kReady]), the entries equal to base_, in key order.
  std::unique_ptr<Entry[]> arena_;
  /// Entries per segment, a power of two >= entry_count_.
  int stride_log2_;
  mutable uint32_t size_[kSegments] = {};
  mutable uint32_t ready_head_ = 0;
  mutable uint64_t occupied_ = 0;
  mutable uint64_t base_ = 0;
  /// Stored entries (live + tombstones), excluding the consumed ready run.
  mutable size_t entry_count_ = 0;

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  uint64_t compactions_ = 0;
  uint64_t rebases_ = 0;
};

}  // namespace alc::sim

#endif  // ALC_SIM_EVENT_QUEUE_H_
