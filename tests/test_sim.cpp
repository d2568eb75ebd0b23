#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"

namespace gridvc::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInAddsDelay) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(0.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), gridvc::PreconditionError);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), gridvc::PreconditionError);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, nullptr), gridvc::PreconditionError);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  auto h = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInsideEarlierEvent) {
  Simulator sim;
  bool fired = false;
  auto h = sim.schedule_at(2.0, [&] { fired = true; });
  sim.schedule_at(1.0, [&] { h.cancel(); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(10.0, [&] { ++count; });
  sim.run_until(5.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_until(20.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, PeriodicFiresOnGrid) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_periodic(10.0, 5.0, [&] {
    times.push_back(sim.now());
    return times.size() < 4;
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{10.0, 15.0, 20.0, 25.0}));
}

TEST(Simulator, PeriodicCancelStopsSeries) {
  Simulator sim;
  int fired = 0;
  auto h = sim.schedule_periodic(1.0, 1.0, [&] {
    ++fired;
    return true;
  });
  sim.schedule_at(3.5, [&] { h.cancel(); });
  sim.run();
  EXPECT_EQ(fired, 3);  // t = 1, 2, 3
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(1.0, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, DispatchedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.dispatched(), 7u);
}

// Regression: pending() must flip to false the moment the event fires —
// the handle's contract is "neither fired nor been cancelled".
TEST(Simulator, HandleConsumedAtDispatch) {
  Simulator sim;
  EventHandle h;
  bool pending_inside = true;
  h = sim.schedule_at(1.0, [&] { pending_inside = h.pending(); });
  EXPECT_TRUE(h.pending());
  sim.run();
  EXPECT_FALSE(pending_inside);  // consumed before the callback runs
  EXPECT_FALSE(h.pending());
  h.cancel();  // safe no-op after firing
  EXPECT_EQ(sim.cancelled(), 0u);
}

// Regression: a handle to a fired event must not cancel an unrelated
// event that later reuses the same slab slot.
TEST(Simulator, StaleHandleDoesNotAffectReusedSlot) {
  Simulator sim;
  auto h1 = sim.schedule_at(1.0, [] {});
  sim.run();
  bool fired = false;
  auto h2 = sim.schedule_at(2.0, [&] { fired = true; });
  h1.cancel();  // stale generation: must miss
  EXPECT_TRUE(h2.pending());
  sim.run();
  EXPECT_TRUE(fired);
}

// Regression: idle() must report exact idleness even while the heap still
// holds cancelled tombstones.
TEST(Simulator, IdleIgnoresCancelledTombstones) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) handles.push_back(sim.schedule_at(1.0 + i, [] {}));
  EXPECT_FALSE(sim.idle());
  for (auto& h : handles) h.cancel();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.live_events(), 0u);
  EXPECT_FALSE(sim.step());  // tombstones are skipped, nothing fires
  EXPECT_EQ(sim.dispatched(), 0u);
}

TEST(Simulator, CountersTrackChurn) {
  Simulator sim;
  auto a = sim.schedule_at(1.0, [] {});
  auto b = sim.schedule_at(2.0, [] {});
  sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.scheduled(), 3u);
  EXPECT_EQ(sim.live_events(), 3u);
  b.cancel();
  EXPECT_EQ(sim.cancelled(), 1u);
  EXPECT_EQ(sim.live_events(), 2u);
  sim.run();
  EXPECT_EQ(sim.scheduled(), 3u);
  EXPECT_EQ(sim.cancelled(), 1u);
  EXPECT_EQ(sim.dispatched(), 2u);
  EXPECT_EQ(sim.live_events(), 0u);
  (void)a;
}

// Mass cancellation triggers tombstone compaction; the surviving events
// must still fire in order.
TEST(Simulator, CompactionPreservesLiveEvents) {
  Simulator sim;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(sim.schedule_at(1.0 + i, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 200; ++i) {
    if (i % 4 != 0) handles[i].cancel();  // kill 150 of 200
  }
  EXPECT_EQ(sim.live_events(), 50u);
  sim.run();
  ASSERT_EQ(fired.size(), 50u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(sim.dispatched(), 50u);
  EXPECT_EQ(sim.cancelled(), 150u);
}

TEST(Simulator, PeriodicCancelFromOwnCallback) {
  Simulator sim;
  int fired = 0;
  EventHandle h;
  h = sim.schedule_periodic(1.0, 1.0, [&] {
    if (++fired == 2) h.cancel();
    return true;
  });
  EXPECT_TRUE(h.pending());
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, PeriodicHandleConsumedWhenSeriesEnds) {
  Simulator sim;
  int fired = 0;
  auto h = sim.schedule_periodic(1.0, 1.0, [&] { return ++fired < 3; });
  sim.run_until(2.0);
  EXPECT_TRUE(h.pending());  // series still live mid-way
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunUntilAtExactEventTimestamp) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(5.0, [&] { fired.push_back(1); });
  sim.schedule_at(5.0, [&] { fired.push_back(2); });
  sim.schedule_at(5.0 + 1e-9, [&] { fired.push_back(3); });
  sim.run_until(5.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));  // boundary events fire, FIFO
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(fired.size(), 3u);
}

// Batched same-timestamp dispatch must preserve FIFO order, interleave
// same-time events scheduled *from* the batch after it, and honor
// cancellations made by earlier batch members.
TEST(Simulator, SameTimestampBatchKeepsFifoOrder) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(7.0, [&fired, i] { fired.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Simulator, CallbackSchedulingAtSameTimeRunsAfterBatch) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(3.0, [&] {
    fired.push_back(0);
    // Scheduled mid-batch at the same timestamp: larger seq, so it must
    // run after every event already queued at t=3, not before.
    sim.schedule_at(3.0, [&] { fired.push_back(9); });
  });
  sim.schedule_at(3.0, [&] { fired.push_back(1); });
  sim.schedule_at(3.0, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, CancellationWithinBatchIsHonored) {
  Simulator sim;
  std::vector<int> fired;
  EventHandle victim;
  sim.schedule_at(4.0, [&] {
    fired.push_back(0);
    victim.cancel();  // same-timestamp event later in this very batch
  });
  victim = sim.schedule_at(4.0, [&] { fired.push_back(1); });
  sim.schedule_at(4.0, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
  EXPECT_EQ(sim.cancelled(), 1u);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, PeriodicSeriesInterleavesWithBatches) {
  Simulator sim;
  std::vector<int> fired;
  int ticks = 0;
  sim.schedule_periodic(1.0, 1.0, [&] {
    fired.push_back(100 + ticks);
    return ++ticks < 3;
  });
  sim.schedule_at(1.0, [&] { fired.push_back(0); });
  sim.schedule_at(2.0, [&] { fired.push_back(1); });
  sim.run();
  // t=1: periodic (scheduled first), then the one-shot; t=2: periodic
  // re-arm has a later seq than the pre-scheduled one-shot.
  EXPECT_EQ(fired, (std::vector<int>{100, 0, 1, 101, 102}));
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, NextEventTimeSeesThroughCancellations) {
  Simulator sim;
  EXPECT_FALSE(sim.next_event_time().has_value());  // idle
  auto early = sim.schedule_at(1.0, [] {});
  sim.schedule_at(5.0, [] {});
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_DOUBLE_EQ(*sim.next_event_time(), 1.0);
  // Cancelling the head tombstone must not be reported as the next event.
  early.cancel();
  ASSERT_TRUE(sim.next_event_time().has_value());
  EXPECT_DOUBLE_EQ(*sim.next_event_time(), 5.0);
  sim.run();
  EXPECT_FALSE(sim.next_event_time().has_value());
}

TEST(Simulator, NextEventTimeMatchesRunUntilBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(4.0, [&] { ++fired; });
  // Running exactly to the reported next event dispatches it (<= deadline).
  const auto t = sim.next_event_time();
  ASSERT_TRUE(t.has_value());
  sim.run_until(*t);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(*sim.next_event_time(), 4.0);
}

TEST(Simulator, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

// Deferred tasks: work a callback hands to its own end.

TEST(Simulator, DeferredTaskRunsAfterItsCallbackBeforeTheNextSameTimeEvent) {
  Simulator sim;
  std::vector<int> fired;
  DeferredTask task([&] { fired.push_back(5); });
  sim.schedule_at(2.0, [&] {
    fired.push_back(0);
    sim.defer(task);
    sim.defer(task);  // already queued: still runs once
    EXPECT_TRUE(task.queued());
    fired.push_back(1);
  });
  sim.schedule_at(2.0, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 5, 2}));
  EXPECT_FALSE(task.queued());
  EXPECT_EQ(sim.dispatched(), 2u);  // a drain is not an event
}

TEST(Simulator, DeferredTaskRunsAtOnceOutsideACallback) {
  Simulator sim;
  int runs = 0;
  DeferredTask task([&] { ++runs; });
  sim.defer(task);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(task.queued());
  sim.schedule_at(1.0, [] {});
  sim.run();
  sim.defer(task);  // after run() returns: outside a callback again
  EXPECT_EQ(runs, 2);
}

TEST(Simulator, TaskDeferredByATaskRunsInTheSameDrain) {
  Simulator sim;
  std::vector<int> fired;
  DeferredTask second([&] { fired.push_back(2); });
  DeferredTask first([&] {
    fired.push_back(1);
    sim.defer(second);
    EXPECT_TRUE(second.queued());  // a drain is still inside the dispatch
  });
  sim.schedule_at(1.0, [&] { sim.defer(first); });
  sim.schedule_at(1.0, [&] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, PeriodicCallbackDefersTheSameWay) {
  Simulator sim;
  std::vector<int> fired;
  int ticks = 0;
  DeferredTask task([&] { fired.push_back(100 + ticks); });
  sim.schedule_periodic(1.0, 1.0, [&] {
    ++ticks;
    fired.push_back(ticks);
    sim.defer(task);
    return ticks < 2;
  });
  sim.schedule_at(1.0, [&] { fired.push_back(0); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 101, 0, 2, 102}));
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, ThrowingCallbackLeavesNothingQueued) {
  Simulator sim;
  int runs = 0;
  DeferredTask task([&] { ++runs; });
  sim.schedule_at(1.0, [&] {
    sim.defer(task);
    throw std::runtime_error("callback fails after deferring");
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(runs, 0);
  EXPECT_FALSE(task.queued());
  // No dispatching state is left behind: outside a callback the task
  // runs at once, and the next callback's deferral is its own.
  sim.defer(task);
  EXPECT_EQ(runs, 1);
  sim.schedule_at(2.0, [&] { sim.defer(task); });
  sim.run();
  EXPECT_EQ(runs, 2);
}

TEST(Simulator, DestroyedTaskLeavesTheQueue) {
  Simulator sim;
  std::vector<int> fired;
  DeferredTask kept([&] { fired.push_back(2); });
  sim.schedule_at(1.0, [&] {
    DeferredTask doomed([&] { fired.push_back(1); });
    sim.defer(doomed);
    sim.defer(kept);
  });  // `doomed` dies with the callback's scope, still queued
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

}  // namespace
}  // namespace gridvc::sim
