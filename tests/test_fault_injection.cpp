// Link up/down dynamics, down-link allocation, and the fault-to-layer
// mapping every fault schedule is replayed through (the failure substrate
// the circuit/GridFTP failure semantics are built on).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gridftp/transfer_engine.hpp"
#include "gridftp/usage_stats.hpp"
#include "net/fair_share.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "recovery/fault_schedule.hpp"
#include "vc/idc.hpp"
#include "workload/faults.hpp"

namespace gridvc::net {
namespace {

struct Fixture {
  sim::Simulator sim;
  Topology topo;
  NodeId a, b, c;
  LinkId ab, bc;
  std::unique_ptr<Network> network;

  Fixture() {
    a = topo.add_node("a", NodeKind::kHost);
    b = topo.add_node("b", NodeKind::kRouter);
    c = topo.add_node("c", NodeKind::kHost);
    ab = topo.add_link(a, b, gbps(10), 0.005);
    bc = topo.add_link(b, c, gbps(10), 0.005);
    network = std::make_unique<Network>(sim, topo);
  }
};

// ---------------------------------------------------------------------------
// Allocator: down links are zero capacity
// ---------------------------------------------------------------------------

TEST(FaultFairShare, DownLinkGetsZeroAllocation) {
  Topology topo;
  const auto a = topo.add_node("a", NodeKind::kHost);
  const auto b = topo.add_node("b", NodeKind::kHost);
  const auto c = topo.add_node("c", NodeKind::kHost);
  const LinkId ab = topo.add_link(a, b, gbps(10), 0.001);
  const LinkId bc = topo.add_link(b, c, gbps(10), 0.001);

  std::vector<FlowDemand> flows(2);
  flows[0].path = {ab, bc};  // crosses the dead link
  flows[1].path = {bc};      // unaffected
  std::vector<char> link_up = {0, 1};  // ab down

  const Allocation alloc = max_min_allocate(topo, flows, link_up);
  EXPECT_DOUBLE_EQ(alloc.rates[0], 0.0);
  EXPECT_DOUBLE_EQ(alloc.rates[1], gbps(10));
}

TEST(FaultFairShare, DownLinkZeroesGuaranteesToo) {
  Topology topo;
  const auto a = topo.add_node("a", NodeKind::kHost);
  const auto b = topo.add_node("b", NodeKind::kHost);
  const LinkId ab = topo.add_link(a, b, gbps(10), 0.001);

  std::vector<FlowDemand> flows(1);
  flows[0].path = {ab};
  flows[0].guarantee = gbps(4);
  std::vector<char> link_up = {0};

  const Allocation alloc = max_min_allocate(topo, flows, link_up);
  EXPECT_DOUBLE_EQ(alloc.rates[0], 0.0);
}

TEST(FaultFairShare, EmptyLinkStateMeansAllUp) {
  Topology topo;
  const auto a = topo.add_node("a", NodeKind::kHost);
  const auto b = topo.add_node("b", NodeKind::kHost);
  const LinkId ab = topo.add_link(a, b, gbps(10), 0.001);

  std::vector<FlowDemand> flows(1);
  flows[0].path = {ab};
  const Allocation with_empty = max_min_allocate(topo, flows, {});
  const Allocation two_arg = max_min_allocate(topo, flows);
  EXPECT_DOUBLE_EQ(with_empty.rates[0], gbps(10));
  EXPECT_DOUBLE_EQ(two_arg.rates[0], gbps(10));
}

// ---------------------------------------------------------------------------
// Network link state
// ---------------------------------------------------------------------------

TEST(LinkState, FlowStallsAndResumesAcrossOutage) {
  Fixture f;
  FlowRecord record{};
  f.network->start_flow({f.ab, f.bc}, GiB, {},
                        [&](const FlowRecord& r) { record = r; });
  f.sim.schedule_at(0.1, [&] { f.network->set_link_state(f.ab, false); });
  f.sim.schedule_at(0.2, [&] {
    // Mid-outage: the flow is still active but completely stalled.
    EXPECT_FALSE(f.network->link_up(f.ab));
    EXPECT_EQ(f.network->active_flow_count(), 1u);
    EXPECT_DOUBLE_EQ(f.network->current_rate(1), 0.0);
  });
  f.sim.schedule_at(10.1, [&] { f.network->set_link_state(f.ab, true); });
  f.sim.run();

  EXPECT_TRUE(f.network->link_up(f.ab));
  EXPECT_EQ(record.outcome, FlowOutcome::kCompleted);
  EXPECT_EQ(record.delivered, GiB);
  // GiB at 10G is ~0.86s; the 10s outage pushed completion past it.
  EXPECT_GT(record.end_time, 10.0);
}

TEST(LinkState, FlowStartedWhileLinkDownWaitsForRepair) {
  Fixture f;
  f.network->set_link_state(f.ab, false);
  FlowRecord record{};
  f.network->start_flow({f.ab}, 100 * MiB, {},
                        [&](const FlowRecord& r) { record = r; });
  f.sim.schedule_at(5.0, [&] { f.network->set_link_state(f.ab, true); });
  f.sim.run();
  EXPECT_EQ(record.outcome, FlowOutcome::kCompleted);
  EXPECT_GT(record.end_time, 5.0);
}

TEST(LinkState, OptedInFlowAbortsWithDeliveredBytes) {
  Fixture f;
  FlowOptions opts;
  opts.fail_on_link_down = true;
  FlowRecord record{};
  f.network->start_flow({f.ab, f.bc}, GiB, opts,
                        [&](const FlowRecord& r) { record = r; });
  // A second, non-opted-in flow on the same path must survive.
  f.network->start_flow({f.ab, f.bc}, GiB, {}, nullptr);
  f.sim.schedule_at(0.4, [&] { f.network->set_link_state(f.ab, false); });
  f.sim.run_until(0.5);

  EXPECT_EQ(record.outcome, FlowOutcome::kFailed);
  EXPECT_EQ(record.id, 1u);
  EXPECT_DOUBLE_EQ(record.end_time, 0.4);
  // 0.4s at a 5G fair share = 250 MB on the wire before the cut.
  EXPECT_NEAR(static_cast<double>(record.delivered), 0.4 * gbps(5) / 8.0, MiB);
  EXPECT_LT(record.delivered, record.size);
  EXPECT_EQ(f.network->active_flow_count(), 1u);  // the stalled survivor
}

TEST(LinkState, SetLinkStateIsIdempotentPerState) {
  Fixture f;
  f.network->set_link_state(f.ab, false);
  f.network->set_link_state(f.ab, false);  // no double-count
  f.network->set_link_state(f.ab, true);
  f.network->set_link_state(f.ab, true);
  const auto snap = f.sim.obs().registry().snapshot();
  EXPECT_DOUBLE_EQ(snap.value("gridvc_net_link_failures"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_net_link_repairs"), 1.0);
}

TEST(LinkState, DowntimeHistogramRecordsOutage) {
  Fixture f;
  f.sim.schedule_at(1.0, [&] { f.network->set_link_state(f.ab, false); });
  f.sim.schedule_at(31.0, [&] { f.network->set_link_state(f.ab, true); });
  f.sim.run();
  const auto snap = f.sim.obs().registry().snapshot();
  const auto* entry = snap.find("gridvc_net_link_downtime_seconds");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->histogram.total, 1u);
  EXPECT_DOUBLE_EQ(entry->histogram.sum, 30.0);
}

// ---------------------------------------------------------------------------
// The shared fault-to-layer mapping (workload::inject_faults)
// ---------------------------------------------------------------------------

/// Fixture's a -> b -> c path plus the IDC and engine a schedule acts on.
/// The path is the only route, so the IDC cannot steer around a link it
/// believes failed.
struct MappedStack : Fixture {
  gridftp::UsageStatsCollector collector;
  gridftp::TransferEngine engine{*network, collector, {}, Rng(1)};
  vc::Idc idc{sim, topo, [] {
                vc::IdcConfig cfg;
                cfg.mode = vc::SignalingMode::kImmediate;
                return cfg;
              }()};

  workload::FaultTargets targets() { return {*network, idc, engine, {ab, bc}, {}}; }
};

/// Asks the IDC for a circuit whenever the Network reports a link up, so
/// the test sees what the IDC believes at that instant.
class UpProbe final : public obs::TraceSink {
 public:
  explicit UpProbe(MappedStack& s) : s_(s) {}
  void emit(const obs::TraceEvent& e) override {
    if (e.type == obs::TraceEventType::kLinkUp) {
      routed_at_up_ = s_.idc.request_immediate(s_.a, s_.c, gbps(1), 1.0).accepted();
    }
  }
  bool routed_at_up() const { return routed_at_up_; }

 private:
  MappedStack& s_;
  bool routed_at_up_ = true;
};

TEST(InjectFaults, NetworkLeadsTheIdcDownAndUp) {
  MappedStack s;
  UpProbe probe(s);
  s.sim.obs().set_trace_sink(&probe);
  // An active circuit over both links: when the IDC fails it, the
  // Network must already hold the link down.
  int failures = 0;
  s.idc.request_immediate(s.a, s.c, gbps(2), 100.0, nullptr, nullptr,
                          [&](const vc::Circuit&) {
                            ++failures;
                            EXPECT_FALSE(s.network->link_up(s.ab));
                          });
  recovery::FaultSchedule schedule;
  schedule.windows = {{recovery::FaultTargetKind::kLink, 0, 10.0, 20.0}};
  const auto injector = workload::inject_faults(s.sim, schedule, s.targets());
  s.sim.run();
  EXPECT_EQ(failures, 1);
  // At the Network's link_up the IDC had not yet run restore_link: the
  // probe found no route over the link the IDC still held failed.
  EXPECT_FALSE(probe.routed_at_up());
  EXPECT_EQ(s.idc.stats().resignaled, 1u);  // restored, then re-homed
  EXPECT_TRUE(s.network->link_up(s.ab));
  EXPECT_TRUE(s.network->link_up(s.bc));
  s.sim.obs().set_trace_sink(nullptr);
}

TEST(InjectFaults, RejectsUnknownTargets) {
  MappedStack s;
  recovery::FaultSchedule schedule;
  schedule.windows = {{recovery::FaultTargetKind::kLink, 2, 1.0, 2.0}};
  EXPECT_THROW(workload::inject_faults(s.sim, schedule, s.targets()), PreconditionError);
  schedule.windows = {{recovery::FaultTargetKind::kServer, 0, 1.0, 2.0}};
  EXPECT_THROW(workload::inject_faults(s.sim, schedule, s.targets()), PreconditionError);
  s.sim.run();  // nothing was scheduled
  EXPECT_DOUBLE_EQ(s.sim.now(), 0.0);
}

}  // namespace
}  // namespace gridvc::net
