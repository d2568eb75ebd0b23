#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"

namespace gridvc::net {
namespace {

struct Fixture {
  sim::Simulator sim;
  Topology topo;
  LinkId ab, bc;
  std::unique_ptr<Network> net;

  Fixture() {
    const NodeId a = topo.add_node("a", NodeKind::kHost);
    const NodeId b = topo.add_node("b", NodeKind::kRouter);
    const NodeId c = topo.add_node("c", NodeKind::kHost);
    ab = topo.add_link(a, b, mbps(800), 0.001);
    bc = topo.add_link(b, c, mbps(800), 0.001);
    net = std::make_unique<Network>(sim, topo);
  }
};

TEST(Network, SingleFlowCompletesAtFluidTime) {
  Fixture f;
  std::vector<FlowRecord> done;
  // 100 MB at 800 Mbps -> 1.0 s.
  f.net->start_flow({f.ab, f.bc}, 100'000'000, {},
                    [&](const FlowRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].end_time - done[0].start_time, 1.0, 1e-6);
  EXPECT_NEAR(done[0].average_rate(), mbps(800), 1.0);
}

// Regression: late in a long run a flow's residue ETA falls below half an
// ulp of the clock, so rescheduling completion "after" it lands on the
// same instant, settles nothing, and repeats forever. The same flow must
// complete at every start time, with its bytes on the link counter.
TEST(Network, FlowCompletesWhenItsResidueEtaIsBelowClockResolution) {
  constexpr Bytes kSize = 15'001'620;
  for (const Seconds t0 : {2e6, 3e6, 4.2e6, 5e6}) {
    sim::Simulator sim;
    Topology topo;
    const LinkId ab = topo.add_link(topo.add_node("a", NodeKind::kHost),
                                    topo.add_node("b", NodeKind::kHost), gbps(10), 0.001);
    Network net(sim, topo);
    std::vector<FlowRecord> done;
    sim.schedule_at(t0, [&] {
      net.start_flow({ab}, kSize, {}, [&](const FlowRecord& r) { done.push_back(r); });
    });
    // Bounded stepping, so the spin fails the test instead of hanging it.
    for (int steps = 0; done.empty() && steps < 1000 && sim.step(); ++steps) {
    }
    ASSERT_EQ(done.size(), 1u) << "start " << t0;
    EXPECT_LT(done[0].end_time, t0 + 10.0);
    EXPECT_NEAR(net.link_bytes(ab), static_cast<double>(kSize), 1.0) << "start " << t0;
  }
}

TEST(Network, CapLimitsRate) {
  Fixture f;
  std::vector<FlowRecord> done;
  FlowOptions opts;
  opts.cap = mbps(100);
  f.net->start_flow({f.ab}, 100'000'000, opts,
                    [&](const FlowRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].end_time, 8.0, 1e-6);
}

TEST(Network, TwoFlowsShareThenSpeedUp) {
  Fixture f;
  // Two equal flows: each at 400 Mbps until the first finishes, then the
  // survivor accelerates. Flow sizes 50 MB and 100 MB:
  //   t=1.0 s: flow1 done (50 MB at 400 Mbps).
  //   flow2 has 50 MB left, now at 800 Mbps -> finishes at t=1.5 s.
  std::vector<double> done_times(2, 0.0);
  f.net->start_flow({f.ab}, 50'000'000, {},
                    [&](const FlowRecord& r) { done_times[0] = r.end_time; });
  f.net->start_flow({f.ab}, 100'000'000, {},
                    [&](const FlowRecord& r) { done_times[1] = r.end_time; });
  f.sim.run();
  EXPECT_NEAR(done_times[0], 1.0, 1e-6);
  EXPECT_NEAR(done_times[1], 1.5, 1e-6);
}

TEST(Network, LateArrivalSlowsExistingFlow) {
  Fixture f;
  // Flow1 (100 MB) starts at t=0 alone at 800 Mbps (100 MB/s). At t=0.5
  // (50 MB in) flow2 starts; both run at 400 Mbps. Flow1's remaining
  // 50 MB takes 1.0 s -> done at 1.5 s.
  double done1 = 0.0;
  f.net->start_flow({f.ab}, 100'000'000, {},
                    [&](const FlowRecord& r) { done1 = r.end_time; });
  f.sim.schedule_at(0.5, [&] {
    f.net->start_flow({f.ab}, 1'000'000'000, {}, nullptr);
  });
  f.sim.run_until(3.0);
  EXPECT_NEAR(done1, 1.5, 1e-6);
}

TEST(Network, GuaranteeShieldsFlowFromContention) {
  Fixture f;
  // Guaranteed 600 Mbps flow + one best-effort flow: guaranteed finishes
  // as if alone at 600+residual-share... At minimum it holds 600 Mbps.
  double done_g = 0.0;
  FlowOptions g;
  g.guarantee = mbps(600);
  g.cap = mbps(600);
  f.net->start_flow({f.ab}, 75'000'000, g,
                    [&](const FlowRecord& r) { done_g = r.end_time; });
  f.net->start_flow({f.ab}, 1'000'000'000, {}, nullptr);
  f.sim.run_until(10.0);
  EXPECT_NEAR(done_g, 1.0, 1e-6);  // 75 MB at 600 Mbps
}

TEST(Network, UpdateCapReschedulesCompletion) {
  Fixture f;
  double done = 0.0;
  FlowOptions opts;
  opts.cap = mbps(100);
  const FlowId id = f.net->start_flow({f.ab}, 100'000'000, opts,
                                      [&](const FlowRecord& r) { done = r.end_time; });
  // After 4 s (50 MB in), lift the cap: remaining 50 MB at 800 Mbps.
  f.sim.schedule_at(4.0, [&] { f.net->update_cap(id, 0.0); });
  f.sim.run();
  EXPECT_NEAR(done, 4.5, 1e-6);
}

TEST(Network, AbortRemovesFlowWithoutCallback) {
  Fixture f;
  bool fired = false;
  const FlowId id =
      f.net->start_flow({f.ab}, 100'000'000, {}, [&](const FlowRecord&) { fired = true; });
  f.sim.schedule_at(0.1, [&] { f.net->abort_flow(id); });
  f.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(f.net->active_flow_count(), 0u);
}

TEST(Network, LinkByteAccounting) {
  Fixture f;
  f.net->start_flow({f.ab, f.bc}, 10'000'000, {}, nullptr);
  f.sim.run();
  EXPECT_NEAR(f.net->link_bytes(f.ab), 10'000'000.0, 1.0);
  EXPECT_NEAR(f.net->link_bytes(f.bc), 10'000'000.0, 1.0);
}

TEST(Network, LinkBytesSettledMidFlight) {
  Fixture f;
  FlowOptions opts;
  opts.cap = mbps(80);
  f.net->start_flow({f.ab}, 100'000'000, opts, nullptr);
  f.sim.schedule_at(1.0, [&] {
    // 1 s at 80 Mbps = 10 MB.
    EXPECT_NEAR(f.net->link_bytes(f.ab), 10'000'000.0, 10.0);
  });
  f.sim.run_until(1.0);
}

TEST(Network, RemainingBytesDecreases) {
  Fixture f;
  FlowOptions opts;
  opts.cap = mbps(800);
  const FlowId id = f.net->start_flow({f.ab}, 100'000'000, opts, nullptr);
  f.sim.schedule_at(0.5, [&] {
    EXPECT_NEAR(static_cast<double>(f.net->remaining_bytes(id)), 50'000'000.0, 100.0);
  });
  f.sim.run_until(0.5);
}

TEST(Network, InvalidFlowsRejected) {
  Fixture f;
  EXPECT_THROW(f.net->start_flow({}, 1, {}, nullptr), gridvc::PreconditionError);
  EXPECT_THROW(f.net->start_flow({f.ab}, 0, {}, nullptr), gridvc::PreconditionError);
  EXPECT_THROW(f.net->start_flow({f.bc, f.ab}, 1, {}, nullptr),
               gridvc::PreconditionError);  // disconnected chain
  EXPECT_THROW(f.net->update_cap(999, 0.0), gridvc::PreconditionError);
  EXPECT_THROW(f.net->abort_flow(999), gridvc::PreconditionError);
}

// The incremental recompute: cap-limited flows are untouched by their
// neighbours' arrivals and completions, so total event churn stays O(N) —
// one completion event per flow plus one per arrival — instead of the
// O(N^2) a reschedule-everything recompute pays.
TEST(Network, CapLimitedChurnStaysLinear) {
  Fixture f;
  const int n = 50;
  int done = 0;
  for (int i = 0; i < n; ++i) {
    FlowOptions opts;
    opts.cap = mbps(10);  // 50 * 10 Mbps = 500 < 800 Mbps: never link-limited
    const Bytes size = 1'000'000 * static_cast<Bytes>(i + 1);  // staggered finishes
    f.net->start_flow({f.ab}, size, opts, [&](const FlowRecord&) { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, n);
  // Exactly one completion event per flow; nothing is ever rescheduled.
  EXPECT_EQ(f.sim.scheduled(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(f.sim.cancelled(), 0u);
}

// When the bottleneck *does* bind, rates genuinely change and flows must
// still be rescheduled — churn is bounded by O(N) per arrival/completion,
// and the fluid completion times stay exact.
TEST(Network, SharedBottleneckStillExact) {
  Fixture f;
  const int n = 8;
  std::vector<double> done_times;
  for (int i = 0; i < n; ++i) {
    f.net->start_flow({f.ab}, 100'000'000, {},
                      [&](const FlowRecord& r) { done_times.push_back(r.end_time); });
  }
  f.sim.run();
  ASSERT_EQ(done_times.size(), static_cast<std::size_t>(n));
  // 8 equal flows on 800 Mbps: all finish together at 8 s.
  for (double t : done_times) EXPECT_NEAR(t, 8.0, 1e-6);
  EXPECT_LE(f.sim.scheduled(), static_cast<std::uint64_t>(n * n + n));
}

TEST(Network, BatchedCapUpdateRecomputesOnce) {
  Fixture f;
  std::vector<double> done(2, 0.0);
  FlowOptions opts;
  opts.cap = mbps(100);
  const FlowId a = f.net->start_flow({f.ab}, 100'000'000, opts,
                                     [&](const FlowRecord& r) { done[0] = r.end_time; });
  const FlowId b = f.net->start_flow({f.ab}, 100'000'000, opts,
                                     [&](const FlowRecord& r) { done[1] = r.end_time; });
  // After 4 s (50 MB in each), lift both caps to 400 Mbps in one batch:
  // the remaining 50 MB then moves at 400 Mbps -> both done at 5 s.
  f.sim.schedule_at(4.0, [&] {
    f.net->update_caps({{a, mbps(400)}, {b, mbps(400)}});
  });
  f.sim.run();
  EXPECT_NEAR(done[0], 5.0, 1e-6);
  EXPECT_NEAR(done[1], 5.0, 1e-6);
  // Schedule budget: 2 initial completions + 1 timer + 2 reschedules.
  EXPECT_EQ(f.sim.scheduled(), 5u);
  EXPECT_EQ(f.sim.cancelled(), 2u);
}

TEST(Network, ManySequentialFlowsConserveBytes) {
  Fixture f;
  double total = 0.0;
  for (int i = 0; i < 20; ++i) {
    const Bytes size = 1'000'000 * static_cast<Bytes>(i + 1);
    total += static_cast<double>(size);
    f.net->start_flow({f.ab}, size, {}, nullptr);
  }
  f.sim.run();
  EXPECT_NEAR(f.net->link_bytes(f.ab), total, 10.0);
}

// Flow records are reused after aborts and completions, so storage order
// drifts from id order; every output-feeding walk must still run in id
// order. Slots after this script: F5 reuses F1's, F4 reuses F2's, F6 is
// new, so storage order is 5, 4, 3, 6 while the live ids are 3, 4, 5, 6.
TEST(Network, ActiveFlowsStayIdOrderedWhenStorageIsReused) {
  Fixture f;
  struct Demand {
    Path path;
    BitsPerSecond cap = 0.0;
    BitsPerSecond guarantee = 0.0;
  };
  const auto start = [&](const Demand& d, Bytes size) {
    FlowOptions opts;
    opts.cap = d.cap;
    opts.guarantee = d.guarantee;
    return f.net->start_flow(d.path, size, opts, nullptr);
  };
  const Bytes big = 10'000'000'000;
  const Demand d3{{f.bc}}, d4{{f.ab, f.bc}, mbps(150)}, d5{{f.ab}, 0.0, mbps(50)},
      d6{{f.ab}};
  const FlowId f1 = start({{f.ab}, mbps(100)}, 12'500'000);  // done at ~1 s
  const FlowId f2 = start({{f.ab, f.bc}, mbps(200)}, big);
  const FlowId f3 = start(d3, big);
  f.sim.schedule_at(0.1, [&] { f.net->abort_flow(f2); });
  FlowId f4 = 0, f5 = 0, f6 = 0;
  f.sim.schedule_at(0.2, [&] { f4 = start(d4, big); });
  f.sim.schedule_at(2.0, [&] {
    f5 = start(d5, big);
    f6 = start(d6, big);
  });
  f.sim.run_until(2.5);
  EXPECT_FALSE(f.net->has_flow(f1));

  const std::vector<FlowId> live = f.net->active_flows();
  EXPECT_EQ(live, (std::vector<FlowId>{f3, f4, f5, f6}));
  // ab carries F4 (capped at 150) and F5's 50 guaranteed; F5 and F6
  // split the other 600 best effort. bc carries F4 and F3, which takes
  // the rest.
  const std::vector<BitsPerSecond> expected = {mbps(650), mbps(150), mbps(350), mbps(300)};
  Fixture fresh;
  std::vector<FlowId> fresh_ids;
  for (const Demand* d : {&d3, &d4, &d5, &d6}) {
    FlowOptions opts;
    opts.cap = d->cap;
    opts.guarantee = d->guarantee;
    fresh_ids.push_back(fresh.net->start_flow(d->path, big, opts, nullptr));
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_DOUBLE_EQ(f.net->current_rate(live[i]), fresh.net->current_rate(fresh_ids[i]))
        << "flow " << live[i];
    EXPECT_NEAR(f.net->current_rate(live[i]), expected[i], 1e-3) << "flow " << live[i];
  }
}

std::uint64_t recomputes(sim::Simulator& sim) {
  obs::MetricsRegistry& reg = sim.obs().registry();
  return reg.counter_value(reg.counter("gridvc_net_recomputes"));
}

// One GridFTP event changes the flow set several times: it starts a
// file's stripes and pushes the servers' new shares as caps. Inside a
// callback those changes share one fair-share pass, run when the
// callback returns; recomputing per change would cost six here.
TEST(Network, OneCallbackOfChangesCostsOnePass) {
  Fixture f;
  std::vector<FlowId> stripes;
  f.sim.schedule_at(1.0, [&] {
    for (int i = 0; i < 4; ++i) {
      stripes.push_back(f.net->start_flow({f.ab, f.bc}, 100'000'000, {}, nullptr));
    }
    f.net->update_cap(stripes[0], mbps(50));
    f.net->update_cap(stripes[1], mbps(50));
    EXPECT_EQ(recomputes(f.sim), 0u);  // nothing re-allocated mid-callback
  });
  ASSERT_TRUE(f.sim.step());
  EXPECT_EQ(recomputes(f.sim), 1u);
  // The one pass saw every change: two capped stripes, two sharing the rest.
  const std::vector<BitsPerSecond> expected = {mbps(50), mbps(50), mbps(350), mbps(350)};
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    EXPECT_NEAR(f.net->current_rate(stripes[i]), expected[i], 1e-3) << "stripe " << i;
  }
  EXPECT_EQ(recomputes(f.sim), 1u);  // reading an exact allocation runs no pass

  // Outside any callback every change still recomputes at once.
  Fixture eager;
  std::vector<FlowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(eager.net->start_flow({eager.ab, eager.bc}, 100'000'000, {}, nullptr));
  }
  eager.net->update_cap(ids[0], mbps(50));
  eager.net->update_cap(ids[1], mbps(50));
  EXPECT_EQ(recomputes(eager.sim), 6u);
}

TEST(Network, CurrentRateInsideACallbackSeesTheNewAllocation) {
  Fixture f;
  f.sim.schedule_at(1.0, [&] {
    const FlowId a = f.net->start_flow({f.ab}, 100'000'000, {}, nullptr);
    const FlowId b = f.net->start_flow({f.ab}, 100'000'000, {}, nullptr);
    EXPECT_NEAR(f.net->current_rate(a), mbps(400), 1e-3);
    EXPECT_NEAR(f.net->current_rate(b), mbps(400), 1e-3);
    f.net->update_cap(b, mbps(100));
    EXPECT_NEAR(f.net->current_rate(a), mbps(700), 1e-3);
    EXPECT_NEAR(f.net->current_rate(b), mbps(100), 1e-3);
  });
  ASSERT_TRUE(f.sim.step());
  // One pass per read that found the allocation stale; the queued pass
  // then had nothing left to do.
  EXPECT_EQ(recomputes(f.sim), 2u);
}

// A link failure inside a callback: the killed stripe's callback restarts
// it on the surviving link and reads the allocation, which must already
// hold the restart and the survivor sharing that link.
TEST(Network, LinkDownCallbackThatRestartsAFlowSeesAConsistentAllocation) {
  Fixture f;
  FlowOptions fragile;
  fragile.fail_on_link_down = true;
  const Bytes size = 100'000'000;
  const FlowId survivor = f.net->start_flow({f.ab}, size, {}, nullptr);
  std::vector<FlowRecord> done;
  f.net->start_flow({f.ab, f.bc}, size, fragile, [&](const FlowRecord& failed) {
    ASSERT_EQ(failed.outcome, FlowOutcome::kFailed);
    EXPECT_NEAR(static_cast<double>(failed.delivered), 0.5 * 400e6 / 8.0, 1.0);
    const FlowId restart = f.net->start_flow({f.ab}, size - failed.delivered, {},
                                             [&](const FlowRecord& r) { done.push_back(r); });
    EXPECT_NEAR(f.net->current_rate(restart), mbps(400), 1e-3);
    EXPECT_NEAR(f.net->current_rate(survivor), mbps(400), 1e-3);
  });
  const std::uint64_t before = recomputes(f.sim);
  f.sim.schedule_at(0.5, [&] { f.net->set_link_state(f.bc, false); });
  ASSERT_TRUE(f.sim.step());
  // One pass, run by the callback's read: the failure and the restart.
  EXPECT_EQ(recomputes(f.sim) - before, 1u);
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(f.net->link_bytes(f.ab), 2.0 * static_cast<double>(size), 10.0);
}

}  // namespace
}  // namespace gridvc::net
