#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_cell.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace alc::sim {
namespace {

TEST(EventCellTest, SmallCapturesStayInline) {
  int sink = 0;
  int* p = &sink;
  EventCell cell([p] { ++*p; });
  EXPECT_TRUE(cell.is_inline());
  cell();
  EXPECT_EQ(sink, 1);
}

TEST(EventCellTest, OversizedCapturesFallBackToHeap) {
  struct Big {
    char bytes[96];
  };
  Big big{};
  big.bytes[0] = 7;
  int sink = 0;
  EventCell cell([big, &sink] { sink = big.bytes[0]; });
  EXPECT_FALSE(cell.is_inline());
  cell();
  EXPECT_EQ(sink, 7);
}

TEST(EventCellTest, MoveTransfersPayload) {
  int sink = 0;
  EventCell a([&sink] { ++sink; });
  EventCell b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(sink, 1);
  EventCell c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(sink, 2);
}

TEST(EventCellTest, QueueCellFitsOwnerPlusPayloadInline) {
  // The CPU/disk completion pattern: an owner pointer plus a moved-in
  // payload cell must still be inline in the queue's storage cell,
  // otherwise every service completion in the system allocates.
  int sink = 0;
  EventCell payload([&sink] { sink += 10; });
  int* owner = &sink;
  EventQueue::Cell completion(
      [owner, done = std::move(payload)]() mutable {
        ++*owner;
        done();
      });
  EXPECT_TRUE(completion.is_inline());
  completion();
  EXPECT_EQ(sink, 11);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(3.0, [&] { order.push_back(3); });
  queue.Push(1.0, [&] { order.push_back(1); });
  queue.Push(2.0, [&] { order.push_back(2); });
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    queue.Push(7.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.Pop().cell();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, PeekTimeMatchesPop) {
  EventQueue queue;
  queue.Push(4.5, [] {});
  queue.Push(2.5, [] {});
  EXPECT_DOUBLE_EQ(queue.PeekTime(), 2.5);
  EXPECT_DOUBLE_EQ(queue.Pop().time, 2.5);
  EXPECT_DOUBLE_EQ(queue.PeekTime(), 4.5);
}

TEST(EventQueueTest, PeekAndEmptyAreConstAndTombstoneAware) {
  // Regression for the pre-refactor interface: PeekTime was non-const, and
  // peek/empty had to be usable with tombstones sitting at the queue head.
  EventQueue queue;
  const EventQueue& view = queue;
  EventHandle head = queue.Push(1.0, [] {});
  queue.Push(2.0, [] {});
  ASSERT_TRUE(queue.Cancel(head));
  // The cancelled event is still queued, but a const peek must see
  // through it to the first live event.
  EXPECT_FALSE(view.empty());
  EXPECT_EQ(view.live_count(), 1u);
  EXPECT_DOUBLE_EQ(view.PeekTime(), 2.0);
  EventHandle last = queue.Push(3.0, [] {});
  queue.Pop();
  ASSERT_TRUE(queue.Cancel(last));
  // Only tombstones remain: empty() must say so without popping them.
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.live_count(), 0u);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  EventHandle handle = queue.Push(1.0, [&] { fired = true; });
  EXPECT_TRUE(queue.Cancel(handle));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue queue;
  EventHandle handle = queue.Push(1.0, [] {});
  EXPECT_TRUE(queue.Cancel(handle));
  EXPECT_FALSE(queue.Cancel(handle));
}

TEST(EventQueueTest, CancelAfterFireFails) {
  EventQueue queue;
  EventHandle handle = queue.Push(1.0, [] {});
  queue.Pop().cell();
  EXPECT_FALSE(queue.Cancel(handle));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, CancelInvalidHandleFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(EventHandle{}));
  // Out-of-range slot and mismatched generation are both rejected.
  EXPECT_FALSE(queue.Cancel(EventHandle{(uint64_t{1} << 24) | 9999u}));
  queue.Push(1.0, [] {});
  EXPECT_FALSE(queue.Cancel(EventHandle{uint64_t{4242} << 24}));
  // A forged generation-0 handle must not match a free slot's cleared
  // stamp (that would double-free the slot).
  queue.Pop().cell();
  EXPECT_FALSE(queue.Cancel(EventHandle{1}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(1.0, [&] { order.push_back(1); });
  EventHandle mid = queue.Push(2.0, [&] { order.push_back(2); });
  queue.Push(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(queue.Cancel(mid));
  EXPECT_EQ(queue.live_count(), 2u);
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, LiveCountTracksPushPopCancel) {
  EventQueue queue;
  EXPECT_EQ(queue.live_count(), 0u);
  EventHandle a = queue.Push(1.0, [] {});
  queue.Push(2.0, [] {});
  EXPECT_EQ(queue.live_count(), 2u);
  queue.Cancel(a);
  EXPECT_EQ(queue.live_count(), 1u);
  queue.Pop();
  EXPECT_EQ(queue.live_count(), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SlotReuseAfterGenerationBump) {
  EventQueue queue;
  bool first_fired = false;
  bool second_fired = false;
  EventHandle first = queue.Push(1.0, [&] { first_fired = true; });
  ASSERT_TRUE(queue.Cancel(first));
  // The freed slot is reused: the new event gets the same slot with a
  // bumped generation.
  EventHandle second = queue.Push(2.0, [&] { second_fired = true; });
  EXPECT_EQ(second.slot(), first.slot());
  EXPECT_NE(second.gen(), first.gen());
  // The stale handle must not cancel (or otherwise affect) the new event.
  EXPECT_FALSE(queue.Cancel(first));
  EXPECT_EQ(queue.live_count(), 1u);
  queue.Pop().cell();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
  // And after the fire, both handles are dead.
  EXPECT_FALSE(queue.Cancel(second));
  EXPECT_FALSE(queue.Cancel(first));
}

TEST(EventQueueTest, CompactionDropsTombstonesAndPreservesOrder) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  constexpr int kEvents = 512;
  for (int i = 0; i < kEvents; ++i) {
    // Colliding times so ordering falls back to scheduling order.
    const double time = static_cast<double>(i % 7);
    handles.push_back(queue.Push(time, [&order, i] { order.push_back(i); }));
  }
  // Cancel two thirds to cross the tombstone-majority compaction boundary.
  std::vector<int> expected;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 3 != 0) {
      ASSERT_TRUE(queue.Cancel(handles[i]));
    }
  }
  EXPECT_GE(queue.compactions(), 1u);
  // Compaction keeps the invariant: tombstones never make up more than half
  // of the stored entries (cancels after the last compaction may leave a minority).
  EXPECT_LT(queue.entry_count(), static_cast<size_t>(kEvents));
  EXPECT_LE((queue.entry_count() - queue.live_count()) * 2,
            queue.entry_count());
  for (int t = 0; t < 7; ++t) {
    for (int i = 0; i < kEvents; ++i) {
      if (i % 3 == 0 && i % 7 == t) expected.push_back(i);
    }
  }
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, StressInterleavedPushCancelPopMatchesModel) {
  // Reference-model check: random interleaving of pushes (many with equal
  // timestamps), cancels and pops must fire exactly the model's sequence.
  // Crosses compaction boundaries and reuses slots across generations.
  struct ModelEvent {
    double time;
    uint64_t seq;
    int id;
  };
  RandomStream rng(99);
  EventQueue queue;
  std::vector<ModelEvent> model;
  std::vector<std::pair<int, EventHandle>> cancellable;
  std::vector<int> fired;
  std::vector<int> expected;
  uint64_t seq = 0;
  int next_id = 0;
  for (int step = 0; step < 20000; ++step) {
    const double p = rng.NextDouble();
    if (p < 0.55) {
      // Equal timestamps on purpose: only 8 distinct times.
      const double time = static_cast<double>(rng.NextUint64(8));
      const int id = next_id++;
      EventHandle handle =
          queue.Push(time, [&fired, id] { fired.push_back(id); });
      model.push_back(ModelEvent{time, seq++, id});
      cancellable.emplace_back(id, handle);
    } else if (p < 0.75 && !cancellable.empty()) {
      const size_t pick = rng.NextUint64(cancellable.size());
      const auto [id, handle] = cancellable[pick];
      cancellable.erase(cancellable.begin() + static_cast<long>(pick));
      ASSERT_TRUE(queue.Cancel(handle));
      EXPECT_FALSE(queue.Cancel(handle));
      auto it = std::find_if(model.begin(), model.end(),
                             [id](const ModelEvent& e) { return e.id == id; });
      ASSERT_NE(it, model.end());
      model.erase(it);
    } else if (!queue.empty()) {
      auto it = std::min_element(model.begin(), model.end(),
                                 [](const ModelEvent& a, const ModelEvent& b) {
                                   if (a.time != b.time) return a.time < b.time;
                                   return a.seq < b.seq;
                                 });
      ASSERT_NE(it, model.end());
      EXPECT_DOUBLE_EQ(queue.PeekTime(), it->time);
      expected.push_back(it->id);
      const int id = it->id;
      model.erase(it);
      const auto popped =
          std::find_if(cancellable.begin(), cancellable.end(),
                       [id](const auto& c) { return c.first == id; });
      if (popped != cancellable.end()) cancellable.erase(popped);
      queue.Pop().cell();
    }
    ASSERT_EQ(queue.live_count(), model.size());
  }
  while (!queue.empty()) {
    auto it = std::min_element(model.begin(), model.end(),
                               [](const ModelEvent& a, const ModelEvent& b) {
                                 if (a.time != b.time) return a.time < b.time;
                                 return a.seq < b.seq;
                               });
    expected.push_back(it->id);
    model.erase(it);
    queue.Pop().cell();
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(fired, expected);
}

TEST(EventQueueTest, MonotoneQuantisedStressMatchesModel) {
  // Reference-model check in the simulator's regime: pushes never precede
  // the last popped time, times sit on a coarse grid (heavy ties), many
  // pushes land exactly at the last popped time, and the queue drains now
  // and then, after which the clock may restart from 0. Phases alternate
  // between growing and shrinking so the queue also reaches hundreds of
  // entries.
  struct ModelEvent {
    double time;
    uint64_t seq;
    int id;
  };
  const auto earlier = [](const ModelEvent& a, const ModelEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  };
  RandomStream rng(2024);
  EventQueue queue;
  std::vector<ModelEvent> model;
  std::vector<std::pair<int, EventHandle>> cancellable;
  std::vector<int> fired;
  std::vector<int> expected;
  uint64_t seq = 0;
  int next_id = 0;
  int drains = 0;
  double now = 0.0;
  const auto pop_one = [&] {
    auto it = std::min_element(model.begin(), model.end(), earlier);
    ASSERT_NE(it, model.end());
    EXPECT_EQ(queue.PeekTime(), it->time);
    const int id = it->id;
    now = it->time;
    expected.push_back(id);
    model.erase(it);
    const auto popped =
        std::find_if(cancellable.begin(), cancellable.end(),
                     [id](const auto& c) { return c.first == id; });
    if (popped != cancellable.end()) cancellable.erase(popped);
    EventQueue::Fired event = queue.Pop();
    EXPECT_EQ(event.time, now);
    event.cell();
  };
  for (int step = 0; step < 30000; ++step) {
    const double p = rng.NextDouble();
    const double push = (step / 1500) % 2 == 0 ? 0.6 : 0.4;
    if (p < push) {
      // Same time as the last pop a quarter of the time, else a few grid
      // steps (of 1/8) ahead of it.
      const double time =
          rng.NextDouble() < 0.25
              ? now
              : now + 0.125 * static_cast<double>(rng.NextUint64(12));
      const int id = next_id++;
      cancellable.emplace_back(
          id, queue.Push(time, [&fired, id] { fired.push_back(id); }));
      model.push_back(ModelEvent{time, seq++, id});
    } else if (p < push + 0.1 && !cancellable.empty()) {
      const size_t pick = rng.NextUint64(cancellable.size());
      const auto [id, handle] = cancellable[pick];
      cancellable.erase(cancellable.begin() + static_cast<long>(pick));
      ASSERT_TRUE(queue.Cancel(handle));
      model.erase(std::find_if(model.begin(), model.end(),
                               [id](const ModelEvent& e) {
                                 return e.id == id;
                               }));
    } else if (p < 0.999) {
      if (!queue.empty()) pop_one();
    } else {
      while (!queue.empty()) pop_one();
      ++drains;
      if (rng.NextDouble() < 0.5) now = 0.0;
    }
    ASSERT_EQ(queue.live_count(), model.size());
  }
  while (!queue.empty()) pop_one();
  EXPECT_TRUE(model.empty());
  EXPECT_GT(drains, 10);
  EXPECT_EQ(fired, expected);
}

TEST(EventQueueTest, PushBeforeAPeekedEventFiresFirst) {
  // A peek may advance the queue to the next event; a later push between
  // the last pop and that event must still come out first.
  EventQueue queue;
  std::vector<int> order;
  queue.Push(1.0, [&] { order.push_back(1); });
  queue.Push(10.0, [&] { order.push_back(10); });
  queue.Push(10.0, [&] { order.push_back(11); });
  queue.Pop().cell();
  EXPECT_DOUBLE_EQ(queue.PeekTime(), 10.0);
  queue.Push(5.0, [&] { order.push_back(5); });
  queue.Push(1.0, [&] { order.push_back(2); });
  queue.Push(10.0, [&] { order.push_back(12); });
  EXPECT_DOUBLE_EQ(queue.PeekTime(), 1.0);
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5, 10, 11, 12}));
}

TEST(EventQueueTest, EqualTimesRedistributedTogetherKeepScheduleOrder) {
  // Ties at 6.0 are scheduled at different points of the run, between
  // pops that move the queue's position, so they travel through several
  // regroupings before they are the earliest; they must still fire in
  // scheduling order, before a time one ulp later and after one ulp
  // earlier.
  EventQueue queue;
  std::vector<int> order;
  const double tie = 6.0;
  const double before = std::nextafter(tie, 0.0);
  const double after = std::nextafter(tie, 100.0);
  queue.Push(tie, [&] { order.push_back(0); });
  queue.Push(after, [&] { order.push_back(100); });
  queue.Push(1.0, [&] { order.push_back(-1); });
  queue.Push(tie, [&] { order.push_back(1); });
  queue.Push(3.0, [&] { order.push_back(-2); });
  queue.Pop().cell();  // 1.0
  queue.Push(tie, [&] { order.push_back(2); });
  queue.Push(5.5, [&] { order.push_back(-3); });
  queue.Pop().cell();  // 3.0
  queue.Push(before, [&] { order.push_back(-4); });
  queue.Push(tie, [&] { order.push_back(3); });
  queue.Pop().cell();  // 5.5
  queue.Push(tie, [&] { order.push_back(4); });
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, (std::vector<int>{-1, -2, -3, -4, 0, 1, 2, 3, 4, 100}));
}

TEST(EventQueueTest, DrainedQueueAcceptsEarlierTimes) {
  // Once drained, the queue starts over: a refill may begin before the
  // last popped time (the perf suite's drain-then-refill rows rely on it),
  // by pop or by cancellation of the last live event.
  EventQueue queue;
  std::vector<int> order;
  queue.Push(50.0, [&] { order.push_back(50); });
  queue.Push(70.0, [&] { order.push_back(70); });
  queue.Pop().cell();
  queue.Pop().cell();
  ASSERT_TRUE(queue.empty());
  queue.Push(3.0, [&] { order.push_back(3); });
  queue.Push(0.0, [&] { order.push_back(0); });
  EventHandle last = queue.Push(40.0, [&] { order.push_back(40); });
  queue.Pop().cell();
  queue.Pop().cell();
  ASSERT_TRUE(queue.Cancel(last));
  ASSERT_TRUE(queue.empty());
  queue.Push(2.0, [&] { order.push_back(2); });
  queue.Push(1.0, [&] { order.push_back(1); });
  while (!queue.empty()) queue.Pop().cell();
  EXPECT_EQ(order, (std::vector<int>{50, 70, 0, 3, 1, 2}));
}

TEST(EventQueueTest, OnlyPushesBeforeTheBaseRebase) {
  // A drained queue restarts its base at 0, so a refill at earlier times
  // costs no re-base; a push before a peeked (not yet popped) event does.
  EventQueue queue;
  queue.Push(50.0, [] {});
  queue.Pop();
  queue.Push(3.0, [] {});
  queue.Push(60.0, [] {});
  EXPECT_EQ(queue.rebases(), 0u);
  queue.Pop();
  EXPECT_DOUBLE_EQ(queue.PeekTime(), 60.0);
  queue.Push(4.0, [] {});
  EXPECT_EQ(queue.rebases(), 1u);
  EXPECT_DOUBLE_EQ(queue.Pop().time, 4.0);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  double seen = -1.0;
  sim.Schedule(5.0, [&] { seen = sim.Now(); });
  sim.RunAll();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
}

TEST(SimulatorTest, NestedSchedulingUsesCurrentTime) {
  Simulator sim;
  std::vector<double> times;
  sim.Schedule(1.0, [&] {
    times.push_back(sim.Now());
    sim.Schedule(2.0, [&] { times.push_back(sim.Now()); });
  });
  sim.RunAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(SimulatorTest, ZeroDelayFiresAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1.0, [&] {
    order.push_back(1);
    sim.Schedule(0.0, [&] { order.push_back(2); });
    order.push_back(3);
  });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.ScheduleAt(t, [&] { ++fired; });
  }
  sim.RunUntil(2.5);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.5);
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 4);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulatorTest, ScheduleAtBoundaryBeforePeekedEvent) {
  // RunUntil peeks at the 10.0 event and stops at 4.0; events then
  // scheduled at the boundary or between it and the peeked event must run
  // first, ties in scheduling order.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(10.0, [&] { order.push_back(10); });
  sim.RunUntil(4.0);
  sim.ScheduleAt(4.0, [&] { order.push_back(4); });
  sim.Schedule(0.0, [&] { order.push_back(5); });
  sim.ScheduleAt(7.0, [&] {
    order.push_back(7);
    sim.Schedule(0.0, [&] { order.push_back(8); });
  });
  sim.ScheduleAt(10.0, [&] { order.push_back(11); });
  sim.RunUntil(20.0);
  EXPECT_EQ(order, (std::vector<int>{1, 4, 5, 7, 8, 10, 11}));
  EXPECT_DOUBLE_EQ(sim.Now(), 20.0);
}

TEST(SimulatorTest, EventAtBoundaryIncluded) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(2.0, [&] { fired = true; });
  sim.RunUntil(2.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(handle));
  sim.RunAll();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Schedule(1.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.Schedule(i, [] {});
  sim.RunAll();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(SimulatorTest, ManyEventsDeterministicOrder) {
  // Two identical simulations must execute identically.
  auto run = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      sim.Schedule((i * 7919) % 100, [&order, i] { order.push_back(i); });
    }
    sim.RunAll();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace alc::sim
