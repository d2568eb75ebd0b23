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

}  // namespace
}  // namespace gridvc::net
