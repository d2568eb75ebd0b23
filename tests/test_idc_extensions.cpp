// OSCARS extension features: modifyReservation and link-failure
// re-pathing.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "recovery/circuit_breaker.hpp"
#include "recovery/journal.hpp"
#include "vc/idc.hpp"

namespace gridvc::vc {
namespace {

using net::LinkId;
using net::NodeId;
using net::NodeKind;
using net::Topology;

// Diamond: a -> r1 -> b (short) and a -> r2 -> b (longer), all 10G.
struct Fixture {
  sim::Simulator sim;
  Topology topo;
  NodeId a, b;
  LinkId a_r1, r1_b, a_r2, r2_b;

  Fixture() {
    a = topo.add_node("a", NodeKind::kHost);
    const NodeId r1 = topo.add_node("r1", NodeKind::kRouter);
    const NodeId r2 = topo.add_node("r2", NodeKind::kRouter);
    b = topo.add_node("b", NodeKind::kHost);
    a_r1 = topo.add_link(a, r1, gbps(10), 0.001);
    r1_b = topo.add_link(r1, b, gbps(10), 0.001);
    a_r2 = topo.add_link(a, r2, gbps(10), 0.005);
    r2_b = topo.add_link(r2, b, gbps(10), 0.005);
  }

  ReservationRequest request(Seconds start, Seconds end, BitsPerSecond bw) {
    ReservationRequest r;
    r.src = a;
    r.dst = b;
    r.bandwidth = bw;
    r.start_time = start;
    r.end_time = end;
    return r;
  }
};

TEST(IdcModify, GrowBandwidthWithinCapacity) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  const auto r = idc.create_reservation(f.request(100, 200, gbps(2)));
  ASSERT_TRUE(r.accepted());
  EXPECT_TRUE(idc.modify_reservation(*r.circuit_id, gbps(8), 200.0));
  EXPECT_DOUBLE_EQ(idc.circuit(*r.circuit_id).request.bandwidth, gbps(8));
}

TEST(IdcModify, GrowBeyondCapacityRejectedAndOldBookingIntact) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  const auto first = idc.create_reservation(f.request(100, 200, gbps(6)));
  const auto second = idc.create_reservation(f.request(100, 200, gbps(6)));
  ASSERT_TRUE(first.accepted());
  ASSERT_TRUE(second.accepted());  // takes the other branch of the diamond
  // Growing the first to 12G cannot fit anywhere.
  EXPECT_FALSE(idc.modify_reservation(*first.circuit_id, gbps(12), 200.0));
  // The original booking survived: a 4G companion still fits beside it...
  EXPECT_DOUBLE_EQ(idc.circuit(*first.circuit_id).request.bandwidth, gbps(6));
  // ...and a third 6G circuit is still rejected (both branches hold 6G).
  EXPECT_FALSE(idc.create_reservation(f.request(100, 200, gbps(6))).accepted());
}

TEST(IdcModify, ExtendEndTime) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  const auto r = idc.create_reservation(f.request(100, 200, gbps(4)));
  ASSERT_TRUE(r.accepted());
  EXPECT_TRUE(idc.modify_reservation(*r.circuit_id, gbps(4), 500.0));
  EXPECT_DOUBLE_EQ(idc.circuit(*r.circuit_id).request.end_time, 500.0);
  // The extension is booked: an overlapping 8G circuit on the same branch
  // at t=300 must avoid it or fail. (The other branch still has room.)
  const auto other = idc.create_reservation(f.request(300, 400, gbps(8)));
  ASSERT_TRUE(other.accepted());
  for (net::LinkId l : idc.circuit(*other.circuit_id).path) {
    for (net::LinkId mine : idc.circuit(*r.circuit_id).path) EXPECT_NE(l, mine);
  }
}

TEST(IdcModify, ShrinkAlwaysFits) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  const auto r = idc.create_reservation(f.request(100, 200, gbps(9)));
  ASSERT_TRUE(r.accepted());
  EXPECT_TRUE(idc.modify_reservation(*r.circuit_id, gbps(1), 150.0));
  // Freed capacity is immediately available.
  EXPECT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
}

TEST(IdcModify, RejectsDegenerateWindowAndWrongState) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  const auto r = idc.create_reservation(f.request(10, 200, gbps(2)));
  ASSERT_TRUE(r.accepted());
  EXPECT_FALSE(idc.modify_reservation(*r.circuit_id, gbps(2), 5.0));  // ends pre-setup
  f.sim.run_until(50.0);  // circuit is now active
  EXPECT_THROW(idc.modify_reservation(*r.circuit_id, gbps(2), 300.0),
               gridvc::PreconditionError);
}

TEST(IdcFailure, RepathsScheduledCircuitAroundFailedLink) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  const auto r = idc.create_reservation(f.request(100, 200, gbps(4)));
  ASSERT_TRUE(r.accepted());
  // The circuit chose the short branch (a_r1, r1_b). Fail r1_b.
  const auto& before = idc.circuit(*r.circuit_id).path;
  ASSERT_EQ(before, (net::Path{f.a_r1, f.r1_b}));
  EXPECT_EQ(idc.handle_link_failure(f.r1_b), 1u);
  EXPECT_EQ(idc.circuit(*r.circuit_id).path, (net::Path{f.a_r2, f.r2_b}));
  EXPECT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kScheduled);
}

TEST(IdcFailure, RepathedScheduledCircuitIsBookedFromItsOwnActivation) {
  // Batched signaling: submitted at t=10, the circuit activates at the
  // t=120 boundary. Re-pathed at t=70, it still activates at t=120, so
  // the backup branch must hold its rate from t=120, not from the t=180
  // boundary a request made at t=70 would get.
  Fixture f;
  Idc idc(f.sim, f.topo);
  f.sim.run_until(10.0);
  const auto r = idc.create_reservation(f.request(10, 1000, gbps(6)));
  ASSERT_TRUE(r.accepted());
  ASSERT_EQ(idc.predicted_activation(10.0, 10.0), 120.0);
  ASSERT_EQ(idc.predicted_activation(70.0, 10.0), 180.0);
  f.sim.run_until(70.0);
  ASSERT_EQ(idc.handle_link_failure(f.r1_b), 1u);
  ASSERT_EQ(idc.circuit(*r.circuit_id).path, (net::Path{f.a_r2, f.r2_b}));
  for (const LinkId l : {f.a_r2, f.r2_b}) {
    EXPECT_DOUBLE_EQ(idc.calendar().available(l, 120.0, 180.0), gbps(4)) << "link " << l;
  }
  // So a second 6G circuit over [120, 180) finds no room on either branch.
  EXPECT_FALSE(idc.create_reservation(f.request(130, 170, gbps(6))).accepted());
  f.sim.run_until(120.0);
  EXPECT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kActive);
  EXPECT_EQ(idc.circuit(*r.circuit_id).active_at, 120.0);
}

TEST(IdcFailure, ActiveCircuitFailsThenResignalsAroundOutage) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  int activations = 0;
  bool released = false, failed = false;
  const auto r = idc.create_reservation(
      f.request(1, 300, gbps(4)), [&](const Circuit&) { ++activations; },
      [&](const Circuit&) { released = true; },
      [&](const Circuit& c) {
        failed = true;
        EXPECT_EQ(c.state, CircuitState::kFailed);
      });
  f.sim.run_until(50.0);
  ASSERT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kActive);
  ASSERT_EQ(idc.circuit(*r.circuit_id).path, (net::Path{f.a_r1, f.r1_b}));
  // Active circuits are handled asynchronously, so the synchronous
  // re-path count is zero: the guarantee is gone *now*.
  EXPECT_EQ(idc.handle_link_failure(f.r1_b), 0u);
  EXPECT_TRUE(failed);
  EXPECT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kFailed);
  // After the re-signal backoff the circuit is re-homed on the far branch.
  f.sim.run_until(60.0);
  EXPECT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kActive);
  EXPECT_EQ(idc.circuit(*r.circuit_id).path, (net::Path{f.a_r2, f.r2_b}));
  EXPECT_EQ(activations, 2);  // initial activation + re-signal
  f.sim.run();
  EXPECT_TRUE(released);  // still released at its end time
  EXPECT_EQ(idc.live_circuit_count(), 0u);
  EXPECT_EQ(idc.stats().failed, 1u);
  EXPECT_EQ(idc.stats().resignaled, 1u);
  EXPECT_EQ(idc.stats().released, 1u);
}

TEST(IdcFailure, UnroutableCircuitEndsFailedAfterResignalsExhaust) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  bool released = false, failed = false;
  const auto active = idc.create_reservation(
      f.request(1, 300, gbps(4)), nullptr, [&](const Circuit&) { released = true; },
      [&](const Circuit&) { failed = true; });
  const auto scheduled = idc.create_reservation(f.request(400, 500, gbps(4)));
  ASSERT_TRUE(scheduled.accepted());
  f.sim.run_until(50.0);
  // Fail both branches' a-side links: nothing can be re-pathed.
  idc.handle_link_failure(f.a_r1);
  EXPECT_EQ(idc.handle_link_failure(f.a_r2), 0u);
  EXPECT_TRUE(failed);
  EXPECT_EQ(idc.stats().cancelled, 1u);  // the scheduled one had no route left
  EXPECT_EQ(idc.live_circuit_count(), 1u);
  EXPECT_EQ(idc.circuit(*active.circuit_id).state, CircuitState::kFailed);
  f.sim.run();
  // Every re-signal found no route; the circuit is given up and the
  // release callback never fires (the guarantee was never restored).
  EXPECT_FALSE(released);
  EXPECT_EQ(idc.stats().failed, 1u);
  EXPECT_EQ(idc.stats().resignaled, 0u);
  EXPECT_EQ(idc.live_circuit_count(), 0u);  // retired after exhausting retries
}

TEST(IdcFailure, FailureAtWindowEndRetiresWithoutResignal) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  // Scheduled before the circuit exists, the failure runs at t=300 ahead
  // of the end-time release: the circuit is still active, but its window
  // has no time left to re-signal into.
  std::size_t live_after_failure = 0;
  f.sim.schedule_at(300.0, [&] {
    idc.handle_link_failure(f.r1_b);
    live_after_failure = idc.live_circuit_count();
  });
  CircuitState seen = CircuitState::kScheduled;
  bool released = false;
  const auto r = idc.create_reservation(
      f.request(1, 300, gbps(4)), nullptr, [&](const Circuit&) { released = true; },
      [&](const Circuit& c) { seen = c.state; });
  f.sim.run_until(10.0);
  ASSERT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kActive);
  f.sim.run();
  EXPECT_EQ(seen, CircuitState::kFailed);
  EXPECT_EQ(live_after_failure, 0u);  // retired at once, no re-signal pending
  EXPECT_FALSE(released);
  EXPECT_EQ(idc.stats().failed, 1u);
  EXPECT_EQ(idc.stats().released, 0u);
  EXPECT_EQ(idc.stats().resignaled, 0u);
}

TEST(IdcFailure, ReleaseNowOnFailedCircuitDropsPendingResignal) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  int activations = 0;
  const auto r = idc.create_reservation(f.request(1, 300, gbps(4)),
                                        [&](const Circuit&) { ++activations; });
  f.sim.run_until(10.0);
  idc.handle_link_failure(f.r1_b);
  ASSERT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kFailed);
  // The caller gave up on the task; the queued re-signal must not revive
  // the circuit behind its back.
  idc.release_now(*r.circuit_id);
  EXPECT_EQ(idc.live_circuit_count(), 0u);
  f.sim.run();
  EXPECT_EQ(activations, 1);
  EXPECT_EQ(idc.stats().resignaled, 0u);
}

TEST(IdcFailure, FailedLinkAvoidedByNewReservationsUntilRestored) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  idc.handle_link_failure(f.a_r1);
  const auto r = idc.create_reservation(f.request(100, 200, gbps(4)));
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(idc.circuit(*r.circuit_id).path, (net::Path{f.a_r2, f.r2_b}));
  idc.restore_link(f.a_r1);
  const auto r2 = idc.create_reservation(f.request(100, 200, gbps(4)));
  ASSERT_TRUE(r2.accepted());
  EXPECT_EQ(idc.circuit(*r2.circuit_id).path, (net::Path{f.a_r1, f.r1_b}));
}

TEST(IdcFailure, RepathedCircuitFreesOldLinks) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  const auto r = idc.create_reservation(f.request(100, 200, gbps(9)));
  ASSERT_TRUE(r.accepted());
  idc.handle_link_failure(f.r1_b);
  // The short branch's a_r1 is healthy and must be free again: restore
  // r1_b and book a full-rate circuit on the short branch.
  idc.restore_link(f.r1_b);
  const auto fresh = idc.create_reservation(f.request(100, 200, gbps(9)));
  ASSERT_TRUE(fresh.accepted());
  EXPECT_EQ(idc.circuit(*fresh.circuit_id).path, (net::Path{f.a_r1, f.r1_b}));
}

// ---------------------------------------------------------------------------
// Lifecycle bookkeeping: live circuits only (the entries_ leak regression)
// ---------------------------------------------------------------------------

TEST(IdcLifecycleStore, TerminalCircuitsDoNotGrowLiveState) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  // Many short-lived circuits over a long run: released and cancelled
  // circuits used to stay in the live map forever.
  constexpr int kRounds = 600;
  std::uint64_t last_id = 0;
  for (int i = 0; i < kRounds; ++i) {
    const Seconds start = static_cast<double>(i) * 10.0 + 1.0;
    const auto r = idc.create_reservation(f.request(start, start + 5.0, gbps(2)));
    ASSERT_TRUE(r.accepted());
    last_id = *r.circuit_id;
    if (i % 3 == 0) idc.cancel(*r.circuit_id);  // mix in pre-activation cancels
  }
  f.sim.run();
  EXPECT_EQ(idc.live_circuit_count(), 0u);
  EXPECT_EQ(idc.stats().released + idc.stats().cancelled,
            static_cast<std::uint64_t>(kRounds));
  // Retired circuits are forgotten, the newest as much as the oldest.
  EXPECT_THROW(idc.circuit(last_id), gridvc::PreconditionError);
  EXPECT_THROW(idc.circuit(1), gridvc::PreconditionError);
}

// A caller's teardown can come long after the circuit retired on its
// own. The IDC forgot it, so release_now has nothing to free, however
// many circuits retired since (more than a store of the 256 newest
// finished circuits would hold).
TEST(IdcLifecycleStore, ReleaseNowLongAfterRetirementIsANoOp) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  const auto first = idc.create_reservation(f.request(1.0, 6.0, gbps(2)));
  ASSERT_TRUE(first.accepted());
  f.sim.run();  // released at its end time
  for (int i = 0; i < 300; ++i) {
    const Seconds start = f.sim.now() + 1.0;
    ASSERT_TRUE(idc.create_reservation(f.request(start, start + 5.0, gbps(2))).accepted());
    f.sim.run();
  }
  ASSERT_EQ(idc.stats().released, 301u);
  EXPECT_NO_THROW(idc.release_now(*first.circuit_id));
  // So is the id of a rejected request: ids are issued per request, so
  // the inverted window below takes the id after the 301 circuits'.
  const auto rejected = idc.create_reservation(f.request(10.0, 5.0, gbps(2)));
  ASSERT_FALSE(rejected.accepted());
  EXPECT_NO_THROW(idc.release_now(*first.circuit_id + 301));
  EXPECT_EQ(idc.stats().released, 301u);
  EXPECT_EQ(idc.calendar().active_bookings(), 0u);
}

// Ids the IDC never issued still fail release_now's precondition, and
// cancel still refuses any circuit that is not live.
TEST(IdcLifecycleStore, UnissuedIdsAndDeadCancelsStillFail) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  const auto r = idc.create_reservation(f.request(1.0, 6.0, gbps(2)));
  ASSERT_TRUE(r.accepted());
  EXPECT_THROW(idc.release_now(0), gridvc::PreconditionError);
  EXPECT_THROW(idc.release_now(*r.circuit_id + 1), gridvc::PreconditionError);
  f.sim.run();
  EXPECT_NO_THROW(idc.release_now(*r.circuit_id));
  EXPECT_THROW(idc.cancel(*r.circuit_id), gridvc::PreconditionError);
  EXPECT_THROW(idc.cancel(*r.circuit_id + 1), gridvc::PreconditionError);
  EXPECT_THROW(idc.circuit(*r.circuit_id), gridvc::PreconditionError);
}

// ---------------------------------------------------------------------------
// Control-plane outages and the re-signaling circuit breaker
// ---------------------------------------------------------------------------

TEST(IdcOutage, FailsFastAndStaysOutOfBlockingStats) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  idc.begin_outage();
  EXPECT_TRUE(idc.in_outage());
  idc.begin_outage();  // idempotent: still one outage window
  EXPECT_EQ(idc.stats().outages, 1u);

  const auto r = idc.create_reservation(f.request(100, 200, gbps(2)));
  EXPECT_FALSE(r.accepted());
  EXPECT_EQ(r.reason, RejectReason::kControlPlaneDown);
  EXPECT_EQ(idc.stats().rejected_outage, 1u);
  // Fail-fast rejections are an availability event, not an admission
  // verdict: they must not pollute the paper's blocking probability.
  EXPECT_DOUBLE_EQ(idc.stats().blocking_probability(), 0.0);

  idc.end_outage();
  EXPECT_FALSE(idc.in_outage());
  EXPECT_TRUE(idc.create_reservation(f.request(100, 200, gbps(2))).accepted());
  EXPECT_DOUBLE_EQ(idc.stats().blocking_probability(), 0.0);
}

TEST(IdcOutage, OutageTripsBreakerThenHalfOpenProbeRecovers) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  // Re-signal backoff 5 s; breaker defaults failure_threshold 3,
  // open_duration 30 s.
  Idc idc(f.sim, f.topo, cfg);
  const auto r = idc.create_reservation(f.request(1, 300, gbps(4)));
  ASSERT_TRUE(r.accepted());
  f.sim.run_until(55.0);
  ASSERT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kActive);

  idc.begin_outage();
  idc.handle_link_failure(f.r1_b);  // t=55: data plane gone, must re-signal
  // Re-signal probes at t=60/65/70 all find the control plane down; the
  // third consecutive failure trips the breaker.
  f.sim.run_until(71.0);
  EXPECT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kFailed);
  EXPECT_EQ(idc.breaker().state(f.sim.now()), recovery::BreakerState::kOpen);
  EXPECT_EQ(idc.breaker().stats().trips, 1u);

  // The t=75 attempt fails fast without touching the control plane and
  // parks until the open window (30 s from the trip at t=70) elapses.
  f.sim.run_until(85.0);
  EXPECT_EQ(idc.breaker().stats().fast_failures, 1u);
  EXPECT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kFailed);
  idc.end_outage();

  // t=100: the half-open probe goes through, re-homes the circuit on the
  // surviving branch, and closes the breaker.
  f.sim.run_until(101.0);
  EXPECT_EQ(idc.circuit(*r.circuit_id).state, CircuitState::kActive);
  EXPECT_EQ(idc.circuit(*r.circuit_id).path, (net::Path{f.a_r2, f.r2_b}));
  EXPECT_EQ(idc.breaker().state(f.sim.now()), recovery::BreakerState::kClosed);
  EXPECT_EQ(idc.breaker().stats().probes, 1u);
  EXPECT_EQ(idc.breaker().stats().closes, 1u);
  EXPECT_EQ(idc.stats().resignaled, 1u);

  f.sim.run();
  EXPECT_EQ(idc.stats().released, 1u);
  EXPECT_EQ(idc.live_circuit_count(), 0u);
}

// ---------------------------------------------------------------------------
// Reservation journal and crash recovery
// ---------------------------------------------------------------------------

TEST(IdcJournal, RecoverRebuildsOnlyUnexpiredReservations) {
  Fixture f;
  recovery::Journal journal;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  cfg.journal = &journal;
  Idc idc(f.sim, f.topo, cfg);
  const auto expired = idc.create_reservation(f.request(10, 80, gbps(2)));
  const auto live = idc.create_reservation(f.request(100, 200, gbps(4)));
  ASSERT_TRUE(expired.accepted());
  ASSERT_TRUE(live.accepted());
  f.sim.run_until(90.0);  // the first circuit released -> tombstoned

  // A restarted IDC on the same journal rebuilds exactly the live set,
  // keeping the original circuit id.
  Idc restarted(f.sim, f.topo, cfg);
  EXPECT_EQ(restarted.recover_from_journal(), 1u);
  EXPECT_EQ(restarted.stats().recovered, 1u);
  EXPECT_EQ(restarted.live_circuit_count(), 1u);
  const Circuit& c = restarted.circuit(*live.circuit_id);
  EXPECT_EQ(c.state, CircuitState::kScheduled);
  EXPECT_DOUBLE_EQ(c.request.bandwidth, gbps(4));
  EXPECT_THROW(restarted.circuit(*expired.circuit_id), gridvc::PreconditionError);
  // Recovery is a restart-only operation: a populated IDC refuses it.
  EXPECT_THROW(restarted.recover_from_journal(), gridvc::PreconditionError);
}

}  // namespace
}  // namespace gridvc::vc
