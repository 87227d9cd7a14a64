#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/metrics.h"
#include "db/two_phase_locking.h"
#include "sim/simulator.h"

namespace alc::db {
namespace {

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : db_(50), lm_(&db_, &metrics_, &sim_) {
    metrics_.blocked_track.Start(0.0, 0.0);
    lm_.SetAbortHook([this](Transaction* txn, AbortReason reason) {
      victims_.push_back(txn);
      reasons_.push_back(reason);
      // Release the victim's locks as the system's abort path would.
      lm_.OnAbort(txn);
    });
  }

  Transaction MakeTxn(TxnId id, double start_time = 0.0) {
    Transaction txn;
    txn.id = id;
    txn.attempt_start_time = start_time;
    txn.state = TxnState::kRunning;
    return txn;
  }

  /// Requests lock for txn's access `index`; counts grants via flags.
  void Request(Transaction* txn, int index, bool* granted) {
    lm_.RequestAccess(txn, index, [granted] { *granted = true; });
  }

  void Plan(Transaction* txn, std::vector<ItemId> items,
            std::vector<AccessMode> modes) {
    txn->access_items = std::move(items);
    txn->access_modes = std::move(modes);
  }

  sim::Simulator sim_;
  Database db_;
  Metrics metrics_;
  LockManager lm_;
  std::vector<Transaction*> victims_;
  std::vector<AbortReason> reasons_;
};

TEST_F(LockManagerTest, SharedLocksAreCompatible) {
  Transaction a = MakeTxn(1), b = MakeTxn(2);
  Plan(&a, {7}, {AccessMode::kRead});
  Plan(&b, {7}, {AccessMode::kRead});
  bool ga = false, gb = false;
  Request(&a, 0, &ga);
  Request(&b, 0, &gb);
  EXPECT_TRUE(ga);
  EXPECT_TRUE(gb);
  EXPECT_EQ(lm_.NumHolders(7), 2);
  EXPECT_EQ(lm_.num_blocked(), 0);
}

TEST_F(LockManagerTest, ExclusiveBlocksReader) {
  Transaction w = MakeTxn(1), r = MakeTxn(2);
  Plan(&w, {3}, {AccessMode::kWrite});
  Plan(&r, {3}, {AccessMode::kRead});
  bool gw = false, gr = false;
  Request(&w, 0, &gw);
  Request(&r, 0, &gr);
  EXPECT_TRUE(gw);
  EXPECT_FALSE(gr);
  EXPECT_EQ(lm_.num_blocked(), 1);
  EXPECT_EQ(r.state, TxnState::kBlocked);
  EXPECT_EQ(r.blocked_on, 3);

  // Commit releases and the reader is granted (deferred via simulator).
  lm_.OnCommit(&w);
  sim_.RunAll();
  EXPECT_TRUE(gr);
  EXPECT_EQ(lm_.num_blocked(), 0);
  EXPECT_EQ(r.state, TxnState::kRunning);
}

TEST_F(LockManagerTest, ReaderBlocksWriter) {
  Transaction r = MakeTxn(1), w = MakeTxn(2);
  Plan(&r, {3}, {AccessMode::kRead});
  Plan(&w, {3}, {AccessMode::kWrite});
  bool gr = false, gw = false;
  Request(&r, 0, &gr);
  Request(&w, 0, &gw);
  EXPECT_TRUE(gr);
  EXPECT_FALSE(gw);
  lm_.OnCommit(&r);
  sim_.RunAll();
  EXPECT_TRUE(gw);
}

TEST_F(LockManagerTest, FifoNoOvertaking) {
  // S behind a queued X must wait even though holders are readers.
  Transaction r1 = MakeTxn(1), w = MakeTxn(2), r2 = MakeTxn(3);
  Plan(&r1, {5}, {AccessMode::kRead});
  Plan(&w, {5}, {AccessMode::kWrite});
  Plan(&r2, {5}, {AccessMode::kRead});
  bool g1 = false, g2 = false, g3 = false;
  Request(&r1, 0, &g1);
  Request(&w, 0, &g2);
  Request(&r2, 0, &g3);
  EXPECT_TRUE(g1);
  EXPECT_FALSE(g2);
  EXPECT_FALSE(g3);  // would be compatible with r1, but FIFO forbids
  EXPECT_EQ(lm_.NumWaiters(5), 2);

  lm_.OnCommit(&r1);
  sim_.RunAll();
  EXPECT_TRUE(g2);   // writer first
  EXPECT_FALSE(g3);  // reader still behind the writer
  lm_.OnCommit(&w);
  sim_.RunAll();
  EXPECT_TRUE(g3);
}

TEST_F(LockManagerTest, HeadRunOfCompatibleReadersGrantedTogether) {
  Transaction w = MakeTxn(1), r1 = MakeTxn(2), r2 = MakeTxn(3);
  Plan(&w, {4}, {AccessMode::kWrite});
  Plan(&r1, {4}, {AccessMode::kRead});
  Plan(&r2, {4}, {AccessMode::kRead});
  bool gw = false, g1 = false, g2 = false;
  Request(&w, 0, &gw);
  Request(&r1, 0, &g1);
  Request(&r2, 0, &g2);
  lm_.OnCommit(&w);
  sim_.RunAll();
  EXPECT_TRUE(g1);
  EXPECT_TRUE(g2);  // both readers at the head granted in one sweep
  EXPECT_EQ(lm_.NumHolders(4), 2);
}

TEST_F(LockManagerTest, MultiItemReleaseCascades) {
  Transaction holder = MakeTxn(1);
  Plan(&holder, {1, 2}, {AccessMode::kWrite, AccessMode::kWrite});
  bool h1 = false, h2 = false;
  Request(&holder, 0, &h1);
  Request(&holder, 1, &h2);
  ASSERT_TRUE(h1 && h2);

  Transaction w1 = MakeTxn(2), w2 = MakeTxn(3);
  Plan(&w1, {1}, {AccessMode::kWrite});
  Plan(&w2, {2}, {AccessMode::kWrite});
  bool g1 = false, g2 = false;
  Request(&w1, 0, &g1);
  Request(&w2, 0, &g2);
  EXPECT_EQ(lm_.num_blocked(), 2);

  lm_.OnCommit(&holder);
  sim_.RunAll();
  EXPECT_TRUE(g1);
  EXPECT_TRUE(g2);
  EXPECT_TRUE(holder.held_locks.empty());
}

TEST_F(LockManagerTest, TwoTransactionDeadlockAbortsYoungest) {
  Transaction old_txn = MakeTxn(1, /*start_time=*/1.0);
  Transaction young_txn = MakeTxn(2, /*start_time=*/5.0);
  Plan(&old_txn, {10, 11}, {AccessMode::kWrite, AccessMode::kWrite});
  Plan(&young_txn, {11, 10}, {AccessMode::kWrite, AccessMode::kWrite});

  bool go0 = false, gy0 = false, go1 = false, gy1 = false;
  Request(&old_txn, 0, &go0);   // old holds 10
  Request(&young_txn, 0, &gy0); // young holds 11
  ASSERT_TRUE(go0 && gy0);

  Request(&old_txn, 1, &go1);   // old waits for 11 (held by young)
  EXPECT_FALSE(go1);
  EXPECT_TRUE(victims_.empty());

  Request(&young_txn, 1, &gy1); // young waits for 10: cycle
  EXPECT_EQ(victims_.size(), 1u);
  EXPECT_EQ(victims_[0], &young_txn);
  EXPECT_EQ(reasons_[0], AbortReason::kDeadlock);
  EXPECT_EQ(lm_.deadlocks_detected(), 1u);

  // The victim's locks were released, so the old transaction proceeds.
  sim_.RunAll();
  EXPECT_TRUE(go1);
}

TEST_F(LockManagerTest, ThreeTransactionCycleDetected) {
  Transaction a = MakeTxn(1, 1.0), b = MakeTxn(2, 2.0), c = MakeTxn(3, 3.0);
  Plan(&a, {20, 21}, {AccessMode::kWrite, AccessMode::kWrite});
  Plan(&b, {21, 22}, {AccessMode::kWrite, AccessMode::kWrite});
  Plan(&c, {22, 20}, {AccessMode::kWrite, AccessMode::kWrite});
  bool ga = false, gb = false, gc = false;
  Request(&a, 0, &ga);
  Request(&b, 0, &gb);
  Request(&c, 0, &gc);
  ASSERT_TRUE(ga && gb && gc);

  bool wa = false, wb = false, wc = false;
  Request(&a, 1, &wa);  // a -> b
  Request(&b, 1, &wb);  // b -> c
  EXPECT_TRUE(victims_.empty());
  Request(&c, 1, &wc);  // c -> a closes the cycle
  ASSERT_EQ(victims_.size(), 1u);
  EXPECT_EQ(victims_[0], &c);  // youngest in the cycle
  sim_.RunAll();
  // a was waiting on 21 held by b; b waiting on 22 held by c - released.
  EXPECT_TRUE(wb);
  lm_.OnCommit(&b);
  sim_.RunAll();
  EXPECT_TRUE(wa);
}

TEST_F(LockManagerTest, NoFalseDeadlockOnSharedChain) {
  // Two readers waiting behind one writer is not a deadlock.
  Transaction w = MakeTxn(1, 1.0), r1 = MakeTxn(2, 2.0), r2 = MakeTxn(3, 3.0);
  Plan(&w, {8}, {AccessMode::kWrite});
  Plan(&r1, {8}, {AccessMode::kRead});
  Plan(&r2, {8}, {AccessMode::kRead});
  bool gw = false, g1 = false, g2 = false;
  Request(&w, 0, &gw);
  Request(&r1, 0, &g1);
  Request(&r2, 0, &g2);
  EXPECT_TRUE(victims_.empty());
  EXPECT_EQ(lm_.deadlocks_detected(), 0u);
}

TEST_F(LockManagerTest, CancelWaitingRemovesFromQueue) {
  Transaction w = MakeTxn(1), waiter = MakeTxn(2), after = MakeTxn(3);
  Plan(&w, {6}, {AccessMode::kWrite});
  Plan(&waiter, {6}, {AccessMode::kWrite});
  Plan(&after, {6}, {AccessMode::kWrite});
  bool gw = false, gwait = false, gafter = false;
  Request(&w, 0, &gw);
  Request(&waiter, 0, &gwait);
  Request(&after, 0, &gafter);
  EXPECT_EQ(lm_.NumWaiters(6), 2);

  lm_.CancelWaiting(&waiter);
  EXPECT_EQ(lm_.NumWaiters(6), 1);
  EXPECT_EQ(waiter.blocked_on, -1);
  EXPECT_EQ(lm_.num_blocked(), 1);

  lm_.OnCommit(&w);
  sim_.RunAll();
  EXPECT_FALSE(gwait);  // cancelled: never granted
  EXPECT_TRUE(gafter);
}

TEST_F(LockManagerTest, CancelHeadWaiterUnblocksRun) {
  // Cancelling a queued writer at the head lets compatible readers through.
  Transaction r0 = MakeTxn(1), w = MakeTxn(2), r1 = MakeTxn(3);
  Plan(&r0, {9}, {AccessMode::kRead});
  Plan(&w, {9}, {AccessMode::kWrite});
  Plan(&r1, {9}, {AccessMode::kRead});
  bool g0 = false, gw = false, g1 = false;
  Request(&r0, 0, &g0);
  Request(&w, 0, &gw);
  Request(&r1, 0, &g1);
  ASSERT_TRUE(g0);
  ASSERT_FALSE(g1);
  lm_.CancelWaiting(&w);
  sim_.RunAll();
  EXPECT_TRUE(g1);  // reader joins the reader holder
  EXPECT_EQ(lm_.NumHolders(9), 2);
}

TEST_F(LockManagerTest, LockCountersTrackRequestsAndWaits) {
  Transaction a = MakeTxn(1), b = MakeTxn(2);
  Plan(&a, {2}, {AccessMode::kWrite});
  Plan(&b, {2}, {AccessMode::kWrite});
  bool ga = false, gb = false;
  Request(&a, 0, &ga);
  Request(&b, 0, &gb);
  EXPECT_EQ(metrics_.counters.lock_requests, 2u);
  EXPECT_EQ(metrics_.counters.lock_waits, 1u);
}

TEST_F(LockManagerTest, CertifyCommitAlwaysTrue) {
  Transaction txn = MakeTxn(1);
  EXPECT_TRUE(lm_.CertifyCommit(&txn));
}

TEST_F(LockManagerTest, AbortReleasesLocks) {
  Transaction a = MakeTxn(1), b = MakeTxn(2);
  Plan(&a, {30}, {AccessMode::kWrite});
  Plan(&b, {30}, {AccessMode::kWrite});
  bool ga = false, gb = false;
  Request(&a, 0, &ga);
  Request(&b, 0, &gb);
  ASSERT_TRUE(ga);
  ASSERT_FALSE(gb);
  lm_.OnAbort(&a);
  sim_.RunAll();
  EXPECT_TRUE(gb);
}

TEST_F(LockManagerTest, LockRecordsAreRecycledAndHeldListsKeepCapacity) {
  // Records exist only while an item has holders or waiters; a released
  // one is reused for the next item, and a transaction's held-lock list is
  // emptied without giving up its storage.
  Transaction a = MakeTxn(1), b = MakeTxn(2);
  for (int round = 0; round < 20; ++round) {
    const ItemId first = static_cast<ItemId>(round % 10);
    Plan(&a, {first, static_cast<ItemId>(first + 10),
              static_cast<ItemId>(first + 20)},
         {AccessMode::kWrite, AccessMode::kRead, AccessMode::kWrite});
    Plan(&b, {first}, {AccessMode::kRead});
    bool granted[3] = {false, false, false};
    bool b_granted = false;
    for (int i = 0; i < 3; ++i) Request(&a, i, &granted[i]);
    Request(&b, 0, &b_granted);
    EXPECT_FALSE(b_granted);
    EXPECT_EQ(lm_.NumWaiters(first), 1);
    lm_.OnCommit(&a);
    EXPECT_TRUE(a.held_locks.empty());
    EXPECT_GE(a.held_locks.capacity(), 3u);
    sim_.RunAll();
    EXPECT_TRUE(b_granted);
    EXPECT_EQ(lm_.NumHolders(first), 1);
    lm_.OnCommit(&b);
    a.state = TxnState::kRunning;
    b.state = TxnState::kRunning;
    for (int item = 0; item < 50; ++item) {
      EXPECT_EQ(lm_.NumHolders(static_cast<ItemId>(item)), 0);
      EXPECT_EQ(lm_.NumWaiters(static_cast<ItemId>(item)), 0);
    }
  }
  // At most three items were ever locked at once.
  EXPECT_LE(lm_.lock_records(), 3u);
}

}  // namespace
}  // namespace alc::db
