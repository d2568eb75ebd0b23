// Malleable (volume-preserving) reservations: shaping, defragmentation,
// reroute-on-rejection, the differential guarantee against fixed-window
// admission, and the satellite stats/journal contracts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "recovery/journal.hpp"
#include "vc/idc.hpp"
#include "workload/testbed.hpp"

namespace gridvc::vc {
namespace {

using net::LinkId;
using net::NodeId;
using net::NodeKind;
using net::Topology;

/// Zero-delay immediate signaling so activation == start_time and the
/// volume arithmetic in expectations stays exact.
IdcConfig immediate_config() {
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  cfg.immediate_setup_delay = 0.0;
  return cfg;
}

// Diamond: a -> r1 -> b (short) and a -> r2 -> b (longer), all 10G.
struct DiamondFixture {
  sim::Simulator sim;
  Topology topo;
  NodeId a, b;
  LinkId a_r1, r1_b, a_r2, r2_b;

  DiamondFixture() {
    a = topo.add_node("a", NodeKind::kHost);
    const NodeId r1 = topo.add_node("r1", NodeKind::kRouter);
    const NodeId r2 = topo.add_node("r2", NodeKind::kRouter);
    b = topo.add_node("b", NodeKind::kHost);
    a_r1 = topo.add_link(a, r1, gbps(10), 0.001);
    r1_b = topo.add_link(r1, b, gbps(10), 0.001);
    a_r2 = topo.add_link(a, r2, gbps(10), 0.005);
    r2_b = topo.add_link(r2, b, gbps(10), 0.005);
  }

  ReservationRequest request(Seconds start, Seconds end, BitsPerSecond bw,
                             bool malleable = false) {
    ReservationRequest r;
    r.src = a;
    r.dst = b;
    r.bandwidth = bw;
    r.start_time = start;
    r.end_time = end;
    r.malleable = malleable;
    return r;
  }

};

// Single path: a -> r -> b, 10G (no detour, so defrag is the only way in).
struct LineFixture {
  sim::Simulator sim;
  Topology topo;
  NodeId a, b;
  LinkId a_r, r_b;

  LineFixture() {
    a = topo.add_node("a", NodeKind::kHost);
    const NodeId r = topo.add_node("r", NodeKind::kRouter);
    b = topo.add_node("b", NodeKind::kHost);
    a_r = topo.add_link(a, r, gbps(10), 0.001);
    r_b = topo.add_link(r, b, gbps(10), 0.001);
  }

  ReservationRequest request(Seconds start, Seconds end, BitsPerSecond bw,
                             bool malleable = false) {
    ReservationRequest r;
    r.src = a;
    r.dst = b;
    r.bandwidth = bw;
    r.start_time = start;
    r.end_time = end;
    r.malleable = malleable;
    return r;
  }
};

// ---------------------------------------------------------------------------
// Shaping
// ---------------------------------------------------------------------------

TEST(MalleableShaping, FlatFitStaysFlat) {
  DiamondFixture f;
  Idc idc(f.sim, f.topo, immediate_config());
  const auto r = idc.create_reservation(f.request(100, 200, gbps(4), true));
  ASSERT_TRUE(r.accepted());
  EXPECT_TRUE(idc.circuit(*r.circuit_id).profile.empty());
  EXPECT_EQ(idc.stats().shaped, 0u);
}

TEST(MalleableShaping, ShapesVolumeWhenFlatWindowDoesNot) {
  DiamondFixture f;
  Idc idc(f.sim, f.topo, immediate_config());
  // Fill both branches to 8G over [100, 200): 2G of headroom anywhere.
  ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
  ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());

  // A flat 4G over [100, 300) cannot fit: the first half has only 2G.
  ASSERT_FALSE(idc.create_reservation(f.request(100, 300, gbps(4))).accepted());

  // The same demand as a malleable volume (4G x 200 s = 800 Gbit) shapes
  // into 2G over the congested half plus 10G once the load drains.
  const auto r = idc.create_reservation(f.request(100, 300, gbps(4), true));
  ASSERT_TRUE(r.accepted());
  const Circuit& c = idc.circuit(*r.circuit_id);
  ASSERT_EQ(c.profile.size(), 2u);
  EXPECT_DOUBLE_EQ(c.profile[0].start, 100.0);
  EXPECT_DOUBLE_EQ(c.profile[0].end, 200.0);
  EXPECT_DOUBLE_EQ(c.profile[0].rate, gbps(2));
  EXPECT_DOUBLE_EQ(c.profile[1].start, 200.0);
  EXPECT_DOUBLE_EQ(c.profile[1].end, 260.0);
  EXPECT_DOUBLE_EQ(c.profile[1].rate, gbps(10));
  EXPECT_DOUBLE_EQ(profile_volume(c.profile), gbps(4) * 200.0);
  EXPECT_EQ(idc.stats().shaped, 1u);
  EXPECT_EQ(idc.stats().defragmented, 0u);
  EXPECT_EQ(idc.stats().rerouted, 0u);

  // The guarantee the data plane should follow steps with the profile.
  EXPECT_DOUBLE_EQ(c.rate_at(150.0), gbps(2));
  EXPECT_DOUBLE_EQ(c.rate_at(230.0), gbps(10));
  EXPECT_DOUBLE_EQ(c.rate_at(280.0), 0.0);
}

TEST(MalleableShaping, StepCapBoundsProfileAndSubRateCapIsInvalid) {
  DiamondFixture f;
  Idc idc(f.sim, f.topo, immediate_config());
  ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
  ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());

  // Shaped demand with steps capped at 5G: the post-drain segment runs
  // longer at the lower rate (2G x 100 + 5G x 200 = the full 1200 Gbit),
  // instead of grabbing all 10G of headroom.
  ReservationRequest req = f.request(100, 400, gbps(4), true);
  req.max_bandwidth = gbps(5);
  const auto r = idc.create_reservation(req);
  ASSERT_TRUE(r.accepted());
  const Circuit& c = idc.circuit(*r.circuit_id);
  ASSERT_FALSE(c.profile.empty());
  for (const RateSegment& s : c.profile) EXPECT_LE(s.rate, gbps(5));
  EXPECT_DOUBLE_EQ(profile_volume(c.profile), gbps(4) * 300.0);

  // A cap below the preferred flat rate cannot carry even the flat shape.
  ReservationRequest bad = f.request(100, 300, gbps(4), true);
  bad.max_bandwidth = gbps(3);
  const auto rejected = idc.create_reservation(bad);
  ASSERT_FALSE(rejected.accepted());
  EXPECT_EQ(rejected.reason, RejectReason::kInvalidRequest);
}

TEST(MalleableShaping, DefragDisplacesScheduledMalleableCircuit) {
  LineFixture f;
  Idc idc(f.sim, f.topo, immediate_config());
  // A malleable circuit holding 6G flat over [100, 400) fragments the
  // calendar: only 4G is left for anyone else in that window.
  const auto m = idc.create_reservation(f.request(100, 400, gbps(6), true));
  ASSERT_TRUE(m.accepted());
  ASSERT_TRUE(idc.circuit(*m.circuit_id).profile.empty());

  // 8G x 100 s = 800 Gbit by t=200 does not fit around the 6G booking
  // (4G x 100 s = 400 Gbit of slack), and there is no detour. Displacing
  // the malleable booking opens the gap: the new request takes 10G for
  // 80 s and the displaced circuit re-packs behind it.
  const auto r = idc.create_reservation(f.request(100, 200, gbps(8), true));
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(idc.stats().shaped, 1u);
  EXPECT_EQ(idc.stats().defragmented, 1u);

  const Circuit& winner = idc.circuit(*r.circuit_id);
  ASSERT_FALSE(winner.profile.empty());
  EXPECT_DOUBLE_EQ(profile_volume(winner.profile), gbps(8) * 100.0);
  EXPECT_DOUBLE_EQ(winner.profile.front().start, 100.0);

  // The displaced circuit still delivers its full volume by its deadline.
  const Circuit& moved = idc.circuit(*m.circuit_id);
  ASSERT_FALSE(moved.profile.empty());
  EXPECT_DOUBLE_EQ(profile_volume(moved.profile), gbps(6) * 300.0);
  EXPECT_LE(moved.profile.back().end, 400.0);

  // Nothing was double-booked: both profiles fit the calendar they are
  // booked in, so the link never exceeds capacity at any instant.
  EXPECT_EQ(idc.calendar().active_bookings(), 2u);
}

TEST(MalleableShaping, DefragAfterNominalActivationNeverBooksInThePast) {
  // Regression: a shaped *scheduled* circuit can sit with its nominal
  // activation already behind the clock — only its profile start has to
  // be in the future. Re-packing such a circuit during defrag used to
  // fill from the nominal activation, booking segments (and re-anchoring
  // the activate event) in the past once the blocker that had pushed the
  // profile late was released — the simulator then threw on
  // schedule-in-the-past. The re-pack must floor at now while still
  // delivering the full admitted volume.
  LineFixture f;
  Idc idc(f.sim, f.topo, immediate_config());
  // Two back-to-back flat blockers saturate [10, 300); the malleable
  // circuit M (2G x [10, 500), volume 980 Gbit) shapes behind them into
  // [300, 398) @ 10G, with nominal activation t=10.
  ASSERT_TRUE(idc.create_reservation(f.request(10, 100, gbps(10))).accepted());
  ASSERT_TRUE(idc.create_reservation(f.request(100, 300, gbps(10))).accepted());
  const auto m = idc.create_reservation(f.request(10, 500, gbps(2), true));
  ASSERT_TRUE(m.accepted());
  ASSERT_DOUBLE_EQ(idc.circuit(*m.circuit_id).profile.front().start, 300.0);

  // t=150: the first blocker has released, so the calendar again shows
  // headroom over the *past* window [10, 100). M is still kScheduled
  // (profile starts at 300) but its activation (10) is behind now.
  f.sim.run_until(150.0);
  ASSERT_EQ(idc.circuit(*m.circuit_id).state, CircuitState::kScheduled);

  // 10G x [300, 400) forces defrag to displace M. The re-pack must land
  // entirely in the future and still carry M's full admitted volume.
  const auto r = idc.create_reservation(f.request(300, 400, gbps(10), true));
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(idc.stats().defragmented, 1u);

  const Circuit& moved = idc.circuit(*m.circuit_id);
  ASSERT_FALSE(moved.profile.empty());
  EXPECT_GE(moved.profile.front().start, 150.0);
  EXPECT_LE(moved.profile.back().end, 500.0);
  EXPECT_DOUBLE_EQ(profile_volume(moved.profile), gbps(2) * 490.0);

  // Both circuits activate and drain cleanly — the re-anchored activate
  // event is in the future, so the run completes without throwing.
  f.sim.run();
  EXPECT_EQ(idc.stats().released, 4u);  // both blockers, M and the newcomer
  EXPECT_EQ(idc.live_circuit_count(), 0u);
  EXPECT_EQ(idc.calendar().active_bookings(), 0u);
}

TEST(MalleableShaping, RerouteShapesOntoDetourWhenPrimaryIsFull) {
  DiamondFixture f;
  Idc idc(f.sim, f.topo, immediate_config());
  // Short branch: saturated (non-malleable, so defrag cannot touch it).
  ASSERT_TRUE(idc.create_reservation(f.request(100, 300, gbps(10))).accepted());
  // Long branch: 8G booked over the first half, then free.
  ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());

  // 4G x 200 s: no flat fit anywhere, the primary (short) branch has
  // zero headroom to shape into, but the detour can carry the volume.
  const auto r = idc.create_reservation(f.request(100, 300, gbps(4), true));
  ASSERT_TRUE(r.accepted());
  EXPECT_EQ(idc.stats().rerouted, 1u);
  const Circuit& c = idc.circuit(*r.circuit_id);
  EXPECT_EQ(c.path, (net::Path{f.a_r2, f.r2_b}));
  EXPECT_DOUBLE_EQ(profile_volume(c.profile), gbps(4) * 200.0);
}

TEST(MalleableShaping, ShapedCircuitActivatesAndReleasesOnProfileBounds) {
  DiamondFixture f;
  Idc idc(f.sim, f.topo, immediate_config());
  ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
  ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
  std::optional<Seconds> active_at, released_at;
  const auto r = idc.create_reservation(
      f.request(100, 300, gbps(4), true),
      [&](const Circuit&) { active_at = f.sim.now(); },
      [&](const Circuit&) { released_at = f.sim.now(); });
  ASSERT_TRUE(r.accepted());
  f.sim.run();
  // Activation at the first profile step; release when the volume is
  // delivered (t=260), not at the nominal end_time (t=300).
  ASSERT_TRUE(active_at.has_value());
  EXPECT_DOUBLE_EQ(*active_at, 100.0);
  ASSERT_TRUE(released_at.has_value());
  EXPECT_DOUBLE_EQ(*released_at, 260.0);
  EXPECT_EQ(idc.live_circuit_count(), 0u);
  EXPECT_EQ(idc.calendar().active_bookings(), 0u);
}

// ---------------------------------------------------------------------------
// Differential guarantees vs fixed-window admission
// ---------------------------------------------------------------------------

TEST(MalleableDifferential, AdmitsSupersetOfFixedWindowOnRandomLoads) {
  // For any randomized prior state, a request the fixed-window scheduler
  // admits is also admitted malleable (the flat shape is always among
  // the shaper's candidates) — and some rejected requests get in.
  Rng root(0xC0FFEEu);
  std::size_t malleable_only = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Rng rng = root.fork(static_cast<std::uint64_t>(trial));
    DiamondFixture fixed;
    DiamondFixture flex;
    Idc idc_fixed(fixed.sim, fixed.topo, immediate_config());
    Idc idc_flex(flex.sim, flex.topo, immediate_config());

    // Identical randomized background load, flat in both.
    const int load = static_cast<int>(rng.uniform_int(3, 8));
    for (int i = 0; i < load; ++i) {
      const Seconds start = rng.uniform(10.0, 500.0);
      const Seconds dur = rng.uniform(50.0, 300.0);
      const BitsPerSecond bw = gbps(rng.uniform(1.0, 6.0));
      const auto a = idc_fixed.create_reservation(fixed.request(start, start + dur, bw));
      const auto b = idc_flex.create_reservation(flex.request(start, start + dur, bw));
      ASSERT_EQ(a.accepted(), b.accepted()) << "trial " << trial << " load " << i;
    }

    // One probe demand, fixed-window vs malleable.
    const Seconds start = rng.uniform(10.0, 400.0);
    const Seconds dur = rng.uniform(50.0, 400.0);
    const BitsPerSecond bw = gbps(rng.uniform(2.0, 9.0));
    const bool fixed_ok =
        idc_fixed.create_reservation(fixed.request(start, start + dur, bw)).accepted();
    const bool flex_ok =
        idc_flex.create_reservation(flex.request(start, start + dur, bw, true)).accepted();
    EXPECT_TRUE(!fixed_ok || flex_ok)
        << "trial " << trial << ": fixed-window admitted a request malleable rejected";
    if (flex_ok && !fixed_ok) ++malleable_only;
  }
  // Strict superset: the seed is chosen so shaping actually rescues some
  // demands, not just matches fixed-window admission.
  EXPECT_GT(malleable_only, 0u);
}

TEST(MalleableDifferential, RejectionReinstatesCalendarByteForByte) {
  LineFixture f;
  Idc idc(f.sim, f.topo, immediate_config());
  // Fragmented load with a displaceable malleable circuit in the middle,
  // so the doomed admission below walks the whole machinery — shaping,
  // defrag (displace + re-pack + rollback) — before giving up.
  ASSERT_TRUE(idc.create_reservation(f.request(100, 400, gbps(4))).accepted());
  ASSERT_TRUE(idc.create_reservation(f.request(100, 400, gbps(6), true)).accepted());

  const auto n_links = static_cast<LinkId>(f.topo.link_count());
  std::vector<std::vector<std::pair<Seconds, RateKbps>>> before;
  for (LinkId l = 0; l < n_links; ++l) {
    before.push_back(idc.calendar().link_deltas(l));
  }
  const std::size_t bookings_before = idc.calendar().active_bookings();

  // 8G x 350 s = 2800 Gbit by t=450. Even with the malleable circuit
  // displaced, the link can carry at most 6G x 300 + 10G x 50 = 2300 Gbit
  // of this demand; defrag must roll back and the request is rejected.
  const auto r = idc.create_reservation(f.request(100, 450, gbps(8), true));
  ASSERT_FALSE(r.accepted());
  EXPECT_EQ(r.reason, RejectReason::kInsufficientBandwidth);

  // The calendar is exactly what it was: same delta sequence on every
  // link, bit for bit, and the same booking count.
  for (LinkId l = 0; l < n_links; ++l) {
    EXPECT_EQ(idc.calendar().link_deltas(l), before[l]) << "link " << l;
  }
  EXPECT_EQ(idc.calendar().active_bookings(), bookings_before);
  // The displaced circuit's lifecycle record is untouched too.
  EXPECT_EQ(idc.stats().defragmented, 0u);
}

// The rollback must rebook what the calendar held, not a block rebuilt
// from the circuit's request: here a scheduled flat circuit re-pathed
// around a failed link, displaced by a defrag that then fails.
TEST(MalleableDifferential, RejectionAfterARepathReinstatesCalendarByteForByte) {
  const workload::TwoSpanWan wan = workload::build_two_span_wan();
  sim::Simulator sim;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;  // 50 ms signaling
  Idc idc(sim, wan.topo, cfg);
  ReservationRequest req;
  req.src = wan.src;
  req.dst = wan.dst;
  req.bandwidth = gbps(4);
  req.start_time = 0.0;
  req.end_time = 1000.0;
  req.malleable = true;
  const auto m = idc.create_reservation(req);  // flat, activates at t=0.05
  ASSERT_TRUE(m.accepted());
  ASSERT_TRUE(idc.circuit(*m.circuit_id).profile.empty());

  // t=0.01: the primary span fails before M activates. M is re-pathed
  // over the backup span from its own activation, t=0.05.
  sim.run_until(0.01);
  ASSERT_EQ(idc.handle_link_failure(wan.primary_span[1]), 1u);
  ASSERT_EQ(idc.circuit(*m.circuit_id).state, CircuitState::kScheduled);

  const auto n_links = static_cast<LinkId>(wan.topo.link_count());
  std::vector<std::vector<std::pair<Seconds, RateKbps>>> before;
  for (LinkId l = 0; l < n_links; ++l) before.push_back(idc.calendar().link_deltas(l));

  // 25G is more than twice any link's 10G: the flat admission, the
  // shaping, the defrag that displaces M and the half-rate detour probe
  // all fail, and the request is rejected.
  req.start_time = sim.now();
  req.bandwidth = gbps(25);
  const auto r = idc.create_reservation(req);
  ASSERT_FALSE(r.accepted());
  EXPECT_EQ(r.reason, RejectReason::kInsufficientBandwidth);
  for (LinkId l = 0; l < n_links; ++l) {
    EXPECT_EQ(idc.calendar().link_deltas(l), before[l]) << "link " << l;
  }
  EXPECT_EQ(idc.calendar().active_bookings(), 1u);
}

// ---------------------------------------------------------------------------
// Stats contract (satellite: rejection_rate vs blocking_probability)
// ---------------------------------------------------------------------------

TEST(IdcStatsContract, RejectionRateIncludesOutagesExcludesRetries) {
  Idc::Stats s;
  s.accepted = 6;
  s.rejected_no_bandwidth = 1;
  s.rejected_no_route = 0;
  s.rejected_invalid = 0;
  s.rejected_outage = 2;
  s.rejected_retries = 5;  // re-rejections: already counted once each
  // Client-observed: 3 rejections out of 9 first-submission outcomes.
  EXPECT_DOUBLE_EQ(s.rejection_rate(), 3.0 / 9.0);
  // Admission-verdict: outage fail-fasts never reached admission.
  EXPECT_DOUBLE_EQ(s.blocking_probability(), 1.0 / 7.0);
}

TEST(IdcStatsContract, OutageFailFastCountsInRejectionRateEndToEnd) {
  DiamondFixture f;
  Idc idc(f.sim, f.topo, immediate_config());
  idc.begin_outage();
  ASSERT_FALSE(idc.create_reservation(f.request(100, 200, gbps(2))).accepted());
  idc.end_outage();
  ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(2))).accepted());
  EXPECT_DOUBLE_EQ(idc.stats().rejection_rate(), 0.5);
  EXPECT_DOUBLE_EQ(idc.stats().blocking_probability(), 0.0);
}

// ---------------------------------------------------------------------------
// Journal recovery boundaries (satellite: exactly-expired windows)
// ---------------------------------------------------------------------------

TEST(MalleableJournal, ExactlyExpiredFlatRecordIsTombstonedNotRebooked) {
  recovery::Journal journal;
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::kHost);
  const NodeId r = topo.add_node("r", NodeKind::kRouter);
  const NodeId b = topo.add_node("b", NodeKind::kHost);
  topo.add_link(a, r, gbps(10), 0.001);
  topo.add_link(r, b, gbps(10), 0.001);

  IdcConfig cfg = immediate_config();
  cfg.journal = &journal;
  std::optional<std::uint64_t> id;
  {
    sim::Simulator sim;
    Idc idc(sim, topo, cfg);
    ReservationRequest req;
    req.src = a;
    req.dst = b;
    req.bandwidth = gbps(4);
    req.start_time = 10.0;
    req.end_time = 80.0;
    const auto res = idc.create_reservation(req);
    ASSERT_TRUE(res.accepted());
    id = res.circuit_id;
    // The process dies before the window ends: no release, no tombstone.
  }

  // Restart at *exactly* the record's end time: zero seconds remain, so
  // the record must be tombstoned — a zero-length rebook would be a
  // degenerate calendar entry.
  sim::Simulator sim2;
  sim2.run_until(80.0);
  Idc restarted(sim2, topo, cfg);
  EXPECT_EQ(restarted.recover_from_journal(), 0u);
  EXPECT_EQ(restarted.live_circuit_count(), 0u);
  EXPECT_EQ(restarted.calendar().active_bookings(), 0u);
  EXPECT_THROW(restarted.circuit(*id), gridvc::PreconditionError);

  // The tombstone stuck: a second restart sees nothing either.
  sim::Simulator sim3;
  sim3.run_until(90.0);
  Idc again(sim3, topo, cfg);
  EXPECT_EQ(again.recover_from_journal(), 0u);
}

TEST(MalleableJournal, ExactlyExpiredShapedRecordIsTombstonedNotRebooked) {
  recovery::Journal journal;
  DiamondFixture f;
  IdcConfig cfg = immediate_config();
  cfg.journal = &journal;
  Seconds profile_end = 0.0;
  std::optional<std::uint64_t> id;
  {
    Idc idc(f.sim, f.topo, cfg);
    ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
    ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
    const auto r = idc.create_reservation(f.request(100, 300, gbps(4), true));
    ASSERT_TRUE(r.accepted());
    id = r.circuit_id;
    const Circuit& c = idc.circuit(*r.circuit_id);
    ASSERT_FALSE(c.profile.empty());
    profile_end = c.profile.back().end;  // t=260, before end_time 300
  }

  // A shaped record expires at its *profile* end, not the nominal
  // end_time: restarting exactly there must tombstone it.
  sim::Simulator sim2;
  sim2.run_until(profile_end);
  Idc restarted(sim2, f.topo, cfg);
  // The two flat records expired at t=200; the shaped one at t=260.
  EXPECT_EQ(restarted.recover_from_journal(), 0u);
  EXPECT_EQ(restarted.live_circuit_count(), 0u);
  EXPECT_THROW(restarted.circuit(*id), gridvc::PreconditionError);
}

TEST(MalleableJournal, ShapedProfileSurvivesRecoveryClippedToNow) {
  recovery::Journal journal;
  DiamondFixture f;
  IdcConfig cfg = immediate_config();
  cfg.journal = &journal;
  std::optional<std::uint64_t> id;
  {
    Idc idc(f.sim, f.topo, cfg);
    ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
    ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
    const auto r = idc.create_reservation(f.request(100, 300, gbps(4), true));
    ASSERT_TRUE(r.accepted());
    id = r.circuit_id;
  }

  // Restart mid-profile: the remaining shaped window is rebooked (only
  // the live record survives; the flat ones expired at t=200).
  sim::Simulator sim2;
  sim2.run_until(230.0);
  Idc restarted(sim2, f.topo, cfg);
  EXPECT_EQ(restarted.recover_from_journal(), 1u);
  const Circuit& c = restarted.circuit(*id);
  ASSERT_FALSE(c.profile.empty());
  // Original profile: [100,200)@2G + [200,260)@10G. Clipped to now=230
  // only [230,260)@10G survives — 300 Gbit still owed.
  EXPECT_DOUBLE_EQ(c.profile.front().start, 230.0);
  EXPECT_DOUBLE_EQ(c.profile.back().end, 260.0);
  EXPECT_DOUBLE_EQ(profile_volume(c.profile), gbps(10) * 30.0);
  EXPECT_EQ(restarted.calendar().active_bookings(), 1u);
  sim2.run();
  EXPECT_EQ(restarted.stats().released, 1u);
  EXPECT_EQ(restarted.live_circuit_count(), 0u);
  EXPECT_EQ(restarted.calendar().active_bookings(), 0u);
}

// A shaped reservation record cut short, with a byte too many, with a
// flag byte other than 0 or 1, or counting more profile segments than it
// holds is refused, the oversized count before the profile is sized from
// it; the intact record still replays afterwards.
TEST(MalleableJournal, MalformedShapedRecordIsRefused) {
  recovery::Journal journal;
  DiamondFixture f;
  IdcConfig cfg = immediate_config();
  cfg.journal = &journal;
  std::uint64_t id = 0;
  std::vector<RateSegment> profile;
  {
    Idc idc(f.sim, f.topo, cfg);
    ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
    ASSERT_TRUE(idc.create_reservation(f.request(100, 200, gbps(8))).accepted());
    const auto r = idc.create_reservation(f.request(100, 300, gbps(4), true));
    ASSERT_TRUE(r.accepted());
    id = *r.circuit_id;
    profile = idc.circuit(id).profile;
    ASSERT_EQ(profile.size(), 2u);
  }
  std::string good;
  for (const auto& rec : journal.replay("vc")) {
    if (rec.key == id) good = rec.payload;
  }
  ASSERT_FALSE(good.empty());
  const auto refused = [&](std::string payload) {
    journal.append("vc", id, std::move(payload));
    sim::Simulator sim;
    Idc restarted(sim, f.topo, cfg);
    EXPECT_THROW(restarted.recover_from_journal(), gridvc::PreconditionError);
  };
  for (std::size_t n = 0; n < good.size(); ++n) {
    SCOPED_TRACE("prefix of " + std::to_string(n) + " bytes");
    refused(good.substr(0, n));
  }
  refused(good + '\0');
  // The malleable flag follows src, dst and four doubles (bandwidth,
  // start, end, activation); it is one byte, 0 or 1.
  constexpr std::size_t kFlagAt = 2 * sizeof(NodeId) + 4 * sizeof(double);
  ASSERT_EQ(good[kFlagAt], '\1');
  std::string bad_flag = good;
  bad_flag[kFlagAt] = '\2';
  refused(bad_flag);
  // The segment count follows the flag and the step cap.
  constexpr std::size_t kCountAt = kFlagAt + 1 + sizeof(double);
  std::uint64_t count = 0;
  std::memcpy(&count, good.data() + kCountAt, sizeof count);
  ASSERT_EQ(count, 2u);
  std::string oversized = good;
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(oversized.data() + kCountAt, &huge, sizeof huge);
  refused(oversized);

  journal.append("vc", id, good);
  sim::Simulator sim;
  Idc restarted(sim, f.topo, cfg);
  EXPECT_EQ(restarted.recover_from_journal(), 3u);
  EXPECT_EQ(restarted.circuit(id).profile, profile);
}

}  // namespace
}  // namespace gridvc::vc
