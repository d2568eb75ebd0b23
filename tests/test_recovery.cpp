#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/error.hpp"
#include "recovery/circuit_breaker.hpp"
#include "recovery/fault_schedule.hpp"
#include "recovery/journal.hpp"
#include "sim/simulator.hpp"

namespace gridvc::recovery {
namespace {

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

TEST(Journal, LastWriteWinsPerKey) {
  Journal j;
  j.append("task", 1, "v1");
  j.append("task", 2, "other");
  j.append("task", 1, "v2");
  const auto records = j.replay("task");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, 1u);
  EXPECT_EQ(records[0].payload, "v2");
  EXPECT_EQ(records[1].key, 2u);
}

TEST(Journal, TombstoneDropsKeyAtReplay) {
  Journal j;
  j.append("task", 1, "alive");
  j.append("task", 2, "doomed");
  j.tombstone("task", 2);
  const auto records = j.replay("task");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, 1u);
}

TEST(Journal, StreamsAreIndependent) {
  Journal j;
  j.append("task", 7, "task-payload");
  j.append("vc", 7, "vc-payload");
  j.tombstone("task", 7);
  EXPECT_TRUE(j.replay("task").empty());
  ASSERT_EQ(j.replay("vc").size(), 1u);
  EXPECT_EQ(j.replay("vc")[0].payload, "vc-payload");
}

TEST(Journal, CompactKeepsExactlyReplayState) {
  Journal j;
  j.append("task", 1, "v1");
  j.append("task", 1, "v2");
  j.append("task", 2, "gone");
  j.tombstone("task", 2);
  j.append("vc", 3, "keep");
  EXPECT_EQ(j.size(), 5u);
  const auto before = j.replay("task");
  const std::size_t dropped = j.compact();
  EXPECT_EQ(dropped, 3u);  // superseded v1, "gone", its tombstone
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.replay("task"), before);
  EXPECT_EQ(j.replay("vc").size(), 1u);
  EXPECT_EQ(j.stats().records_dropped, 3u);
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

TEST(CircuitBreaker, TripsAfterConsecutiveFailuresAndFailsFast) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.open_duration = 30.0;
  CircuitBreaker breaker(cfg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.allow(static_cast<double>(i)));
    breaker.record_failure(static_cast<double>(i));
  }
  EXPECT_EQ(breaker.state(2.5), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 1u);
  EXPECT_FALSE(breaker.allow(10.0));  // still inside the open window
  EXPECT_EQ(breaker.stats().fast_failures, 1u);
  EXPECT_DOUBLE_EQ(breaker.reopen_at(), 32.0);
}

TEST(CircuitBreaker, HalfOpenAdmitsSingleProbeThenCloses) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_duration = 10.0;
  CircuitBreaker breaker(cfg);
  EXPECT_TRUE(breaker.allow(0.0));
  breaker.record_failure(0.0);
  // Open window elapsed: exactly one probe admitted.
  EXPECT_TRUE(breaker.allow(11.0));
  EXPECT_FALSE(breaker.allow(11.5));  // probe in flight, others fail fast
  breaker.record_success(12.0);
  EXPECT_EQ(breaker.state(12.0), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().probes, 1u);
  EXPECT_EQ(breaker.stats().closes, 1u);
  EXPECT_TRUE(breaker.allow(12.5));
}

TEST(CircuitBreaker, FailedProbeReopens) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_duration = 10.0;
  CircuitBreaker breaker(cfg);
  breaker.allow(0.0);
  breaker.record_failure(0.0);
  EXPECT_TRUE(breaker.allow(10.5));
  breaker.record_failure(10.5);
  EXPECT_EQ(breaker.state(10.6), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 2u);
  // Open window restarts from the failed probe.
  EXPECT_FALSE(breaker.allow(15.0));
  EXPECT_TRUE(breaker.allow(21.0));
}

// ---------------------------------------------------------------------------
// Fault schedules
// ---------------------------------------------------------------------------

FaultScheduleSpec chaos_spec() {
  FaultScheduleSpec spec;
  spec.link_count = 2;
  spec.server_count = 2;
  spec.idc = true;
  spec.start_after = 5.0;
  spec.horizon = 1000.0;
  spec.link_mtbf = 100.0;
  spec.link_mttr = 10.0;
  spec.server_mtbf = 200.0;
  spec.server_mttr = 20.0;
  spec.idc_mtbf = 300.0;
  spec.idc_mttr = 15.0;
  return spec;
}

TEST(FaultSchedule, DeterministicAndWellFormed) {
  const auto spec = chaos_spec();
  const FaultSchedule a = generate_fault_schedule(spec, 42);
  const FaultSchedule b = generate_fault_schedule(spec, 42);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_FALSE(a.windows.empty());
  for (const auto& w : a.windows) {
    EXPECT_GE(w.down_at, spec.start_after);
    EXPECT_LT(w.down_at, spec.horizon);
    EXPECT_GT(w.up_at, w.down_at);  // every fault heals
  }
  // Sorted by down time.
  for (std::size_t i = 1; i < a.windows.size(); ++i) {
    EXPECT_LE(a.windows[i - 1].down_at, a.windows[i].down_at);
  }
  // Per-target windows never overlap.
  for (const auto& w1 : a.windows) {
    for (const auto& w2 : a.windows) {
      if (&w1 == &w2 || w1.kind != w2.kind || w1.target != w2.target) continue;
      EXPECT_TRUE(w1.up_at <= w2.down_at || w2.up_at <= w1.down_at);
    }
  }
  EXPECT_NE(generate_fault_schedule(spec, 43).windows, a.windows);

  // A spec that cannot yield healing windows is refused.
  auto unrepairable = spec;
  unrepairable.link_mttr = 0.0;  // links enabled but never repaired
  EXPECT_THROW(generate_fault_schedule(unrepairable, 42), PreconditionError);
  auto no_window = spec;
  no_window.horizon = no_window.start_after;  // no time to fail in
  EXPECT_THROW(generate_fault_schedule(no_window, 42), PreconditionError);
}

TEST(FaultSchedule, KindsDrawFromIndependentStreams) {
  // Disabling the link process must not shift the server/IDC windows.
  auto spec = chaos_spec();
  const FaultSchedule full = generate_fault_schedule(spec, 7);
  spec.link_mtbf = 0.0;
  const FaultSchedule no_links = generate_fault_schedule(spec, 7);
  EXPECT_EQ(no_links.count(FaultTargetKind::kLink), 0u);
  std::vector<FaultWindow> expected;
  for (const auto& w : full.windows) {
    if (w.kind != FaultTargetKind::kLink) expected.push_back(w);
  }
  EXPECT_EQ(no_links.windows, expected);
}

TEST(FaultScheduleInjector, ReplaysEveryWindowInOrder) {
  sim::Simulator sim;
  FaultSchedule schedule;
  schedule.windows = {
      {FaultTargetKind::kLink, 0, 1.0, 5.0},
      {FaultTargetKind::kServer, 1, 2.0, 3.0},
      {FaultTargetKind::kIdc, 0, 4.0, 6.0},
  };
  std::vector<std::pair<double, int>> log;  // (time, +down/-up code)
  FaultScheduleInjector injector(
      sim, schedule,
      [&](FaultTargetKind kind, std::uint64_t) {
        log.emplace_back(sim.now(), static_cast<int>(kind) + 1);
      },
      [&](FaultTargetKind kind, std::uint64_t) {
        log.emplace_back(sim.now(), -(static_cast<int>(kind) + 1));
      });
  sim.run();
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(injector.stats().downs, 3u);
  EXPECT_EQ(injector.stats().ups, 3u);
  const std::vector<std::pair<double, int>> expected = {
      {1.0, 1}, {2.0, 2}, {3.0, -2}, {4.0, 3}, {5.0, -1}, {6.0, -3}};
  EXPECT_EQ(log, expected);

  // Overlapping windows on one target would double-fail it and heal it
  // mid-outage: refused.
  schedule.windows.push_back({FaultTargetKind::kLink, 0, 4.0, 7.0});
  EXPECT_THROW(FaultScheduleInjector(sim, schedule, nullptr, nullptr), PreconditionError);
}

TEST(FaultScheduleInjector, DestructionCancelsPendingEvents) {
  sim::Simulator sim;
  FaultSchedule schedule;
  schedule.windows = {{FaultTargetKind::kLink, 0, 1.0, 5.0}};
  int fired = 0;
  {
    FaultScheduleInjector injector(
        sim, schedule, [&](FaultTargetKind, std::uint64_t) { ++fired; },
        [&](FaultTargetKind, std::uint64_t) { ++fired; });
  }
  sim.run();  // injector died before the run: nothing may fire
  EXPECT_EQ(fired, 0);
}

TEST(ShrinkSchedule, FindsOneMinimalSubset) {
  // "Fails" iff the schedule still contains the one poisoned window.
  const FaultWindow poison{FaultTargetKind::kServer, 1, 40.0, 50.0};
  FaultSchedule failing;
  for (int i = 0; i < 12; ++i) {
    failing.windows.push_back(
        {FaultTargetKind::kLink, static_cast<std::uint64_t>(i % 3),
         static_cast<double>(i * 10), static_cast<double>(i * 10 + 5)});
  }
  failing.windows.push_back(poison);
  int evaluations = 0;
  const auto still_fails = [&](const FaultSchedule& s) {
    ++evaluations;
    for (const auto& w : s.windows) {
      if (w == poison) return true;
    }
    return false;
  };
  const FaultSchedule minimal = shrink_schedule(failing, still_fails);
  ASSERT_EQ(minimal.windows.size(), 1u);
  EXPECT_EQ(minimal.windows[0], poison);
  EXPECT_GT(evaluations, 0);
}

TEST(ShrinkSchedule, RequiresFailingInput) {
  FaultSchedule passing;
  passing.windows = {{FaultTargetKind::kLink, 0, 1.0, 2.0}};
  EXPECT_THROW(shrink_schedule(passing, [](const FaultSchedule&) { return false; }),
               PreconditionError);
}

}  // namespace
}  // namespace gridvc::recovery
