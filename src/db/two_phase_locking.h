#ifndef ALC_DB_TWO_PHASE_LOCKING_H_
#define ALC_DB_TWO_PHASE_LOCKING_H_

#include <functional>
#include <vector>

#include "db/cc.h"
#include "db/database.h"
#include "db/metrics.h"
#include "sim/simulator.h"
#include "util/ring_buffer.h"

namespace alc::db {

/// Strict two-phase locking: shared/exclusive item locks acquired at access
/// time and held to commit/abort. The wait policy is strict FIFO per item
/// (the queue head run of compatible requests is granted when holders
/// allow), which prevents writer starvation. Deadlocks are detected on
/// block by a waits-for graph search; the youngest cycle member is aborted
/// (paper section 4.3: "victim selection may be based on the same criteria
/// as for deadlock breaking").
///
/// This implements the *blocking* CC class of paper section 1, whose mean
/// blocked-transaction count grows quadratically with the concurrency level
/// [Tay et al. 1985]; bench/cc_comparison reproduces that behaviour.
class LockManager : public ConcurrencyControl {
 public:
  LockManager(Database* db, Metrics* metrics, sim::Simulator* sim);

  /// Must be set before the first access; invoked for deadlock victims.
  void SetAbortHook(AbortHook hook);

  void OnAttemptStart(Transaction* txn) override;
  void RequestAccess(Transaction* txn, int index,
                     sim::EventCell proceed) override;
  bool CertifyCommit(Transaction* txn) override;
  void OnCommit(Transaction* txn) override;
  void OnAbort(Transaction* txn) override;
  void CancelWaiting(Transaction* txn) override;

  /// Number of transactions currently blocked in some lock queue.
  int num_blocked() const { return blocked_count_; }
  uint64_t deadlocks_detected() const { return deadlocks_detected_; }

  /// Test introspection: holder/waiter counts for an item, and the number
  /// of pooled lock records (in use or free).
  int NumHolders(ItemId item) const;
  int NumWaiters(ItemId item) const;
  size_t lock_records() const { return lock_pool_.size(); }

 private:
  struct Waiter {
    Transaction* txn;
    AccessMode mode;
    sim::EventCell proceed;
  };
  struct Holder {
    Transaction* txn;
    AccessMode mode;
  };
  /// The lock state of one item that has holders or waiters. Records are
  /// pooled: an item with neither has none, and an emptied record goes back
  /// to the pool with its vectors' capacity, so FIFO churn on hot items
  /// reuses storage and building the lock table costs one index per item.
  struct ItemLock {
    ItemId item = 0;
    std::vector<Holder> holders;
    util::RingBuffer<Waiter> waiters;
  };
  static constexpr uint32_t kNoLock = ~uint32_t{0};

  static bool Compatible(AccessMode a, AccessMode b) {
    return a == AccessMode::kRead && b == AccessMode::kRead;
  }

  /// The item's record, or nullptr if nobody holds or waits for it.
  ItemLock* Find(ItemId item);
  const ItemLock* Find(ItemId item) const;
  /// The item's record, taken from the pool if it has none. May grow the
  /// pool, which invalidates references to other records.
  ItemLock& Acquire(ItemId item);

  bool CanGrant(const ItemLock& lock, AccessMode mode) const;
  void Grant(ItemLock* lock, Transaction* txn, AccessMode mode);
  /// Grants the head run of compatible waiters; proceeds are scheduled at
  /// the current time (never synchronously) to avoid re-entrancy. Returns
  /// the item's record to the pool if it is left with no holders and no
  /// waiters — every path that empties a record ends here.
  void GrantWaiters(ItemId item);
  void ReleaseAll(Transaction* txn);
  void RemoveWaiter(Transaction* txn);

  /// Detects a waits-for cycle reachable from `start`; if found, aborts the
  /// youngest member via the abort hook. Returns true if a victim was taken.
  /// Runs on every block, so the search reuses persistent scratch and visit
  /// stamps on the transactions — no allocation at steady state.
  bool ResolveDeadlock(Transaction* start);
  /// Appends the transactions `txn` is directly waiting for (holders of,
  /// and incompatible waiters ahead in, its blocked-on queue) to `out`.
  void AppendWaitsFor(Transaction* txn, std::vector<Transaction*>* out) const;

  Database* db_;
  Metrics* metrics_;
  sim::Simulator* sim_;
  AbortHook abort_hook_;
  /// Per item: its record's index in lock_pool_, or kNoLock.
  std::vector<uint32_t> lock_of_;
  std::vector<ItemLock> lock_pool_;
  std::vector<uint32_t> free_locks_;
  /// ReleaseAll's copy of the released items, so the transaction's own
  /// held_locks keeps its capacity for the next attempt.
  std::vector<ItemId> release_scratch_;
  int blocked_count_ = 0;
  uint64_t deadlocks_detected_ = 0;
  uint64_t commit_seq_ = 0;

  /// Deadlock-DFS scratch, reused across searches. Frames reference spans
  /// of the shared edge pool instead of owning per-frame vectors.
  struct DfsFrame {
    Transaction* node;
    size_t edges_end;  // this frame's edges are dfs_edges_[next..edges_end)
    size_t next;
  };
  std::vector<DfsFrame> dfs_stack_;
  std::vector<Transaction*> dfs_edges_;
  std::vector<Transaction*> dfs_path_;
  std::vector<Transaction*> dfs_cycle_;
  uint64_t dfs_epoch_ = 0;
};

}  // namespace alc::db

#endif  // ALC_DB_TWO_PHASE_LOCKING_H_
