#include "vc/bandwidth_calendar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace gridvc::vc {
namespace {

using net::LinkId;
using net::NodeId;
using net::NodeKind;
using net::Path;
using net::Topology;

TEST(BandwidthProfile, AddAndQuery) {
  BandwidthProfile p;
  p.add(10.0, 20.0, mbps(100));
  EXPECT_DOUBLE_EQ(p.at(5.0), 0.0);
  EXPECT_DOUBLE_EQ(p.at(10.0), mbps(100));
  EXPECT_DOUBLE_EQ(p.at(19.9), mbps(100));
  EXPECT_DOUBLE_EQ(p.at(20.0), 0.0);
}

TEST(BandwidthProfile, PeakOverlap) {
  BandwidthProfile p;
  p.add(0.0, 100.0, mbps(100));
  p.add(50.0, 150.0, mbps(200));
  EXPECT_DOUBLE_EQ(p.peak(0.0, 50.0), mbps(100));
  EXPECT_DOUBLE_EQ(p.peak(0.0, 150.0), mbps(300));
  EXPECT_DOUBLE_EQ(p.peak(100.0, 150.0), mbps(200));
  EXPECT_DOUBLE_EQ(p.peak(200.0, 300.0), 0.0);
}

TEST(BandwidthProfile, PeakWindowEntirelyInsideOneBlock) {
  BandwidthProfile p;
  p.add(0.0, 100.0, mbps(500));
  EXPECT_DOUBLE_EQ(p.peak(40.0, 60.0), mbps(500));
}

TEST(BandwidthProfile, EntryLevelNotStale) {
  // A block that ends before the window must not leak into the peak.
  BandwidthProfile p;
  p.add(0.0, 10.0, mbps(900));
  p.add(20.0, 30.0, mbps(100));
  EXPECT_DOUBLE_EQ(p.peak(15.0, 40.0), mbps(100));
  EXPECT_DOUBLE_EQ(p.peak(12.0, 18.0), 0.0);
}

TEST(BandwidthProfile, RemoveRestores) {
  BandwidthProfile p;
  p.add(0.0, 10.0, mbps(100));
  p.remove(0.0, 10.0, mbps(100));
  EXPECT_TRUE(p.empty());
  EXPECT_DOUBLE_EQ(p.peak(0.0, 10.0), 0.0);
}

TEST(BandwidthProfile, InvalidWindowsThrow) {
  BandwidthProfile p;
  EXPECT_THROW(p.add(10.0, 10.0, 1.0), gridvc::PreconditionError);
  EXPECT_THROW(p.add(10.0, 5.0, 1.0), gridvc::PreconditionError);
  EXPECT_THROW(p.add(0.0, 1.0, 0.0), gridvc::PreconditionError);
}

struct CalFixture {
  Topology topo;
  LinkId ab, bc;
  CalFixture() {
    const NodeId a = topo.add_node("a", NodeKind::kHost);
    const NodeId b = topo.add_node("b", NodeKind::kRouter);
    const NodeId c = topo.add_node("c", NodeKind::kHost);
    ab = topo.add_link(a, b, gbps(10), 0.001);
    bc = topo.add_link(b, c, gbps(10), 0.001);
  }
};

TEST(BandwidthCalendar, FullCapacityAvailableInitially) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 0.0, 1000.0), gbps(10));
}

TEST(BandwidthCalendar, ReservableFractionCapsAvailability) {
  CalFixture f;
  BandwidthCalendar cal(f.topo, 0.5);
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 0.0, 1000.0), gbps(5));
}

TEST(BandwidthCalendar, BookReducesAvailabilityOnlyInWindow) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  cal.book({f.ab, f.bc}, 100.0, 200.0, gbps(4));
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 100.0, 200.0), gbps(6));
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 0.0, 100.0), gbps(10));
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 200.0, 300.0), gbps(10));
  EXPECT_DOUBLE_EQ(cal.available(f.bc, 150.0, 160.0), gbps(6));
}

TEST(BandwidthCalendar, FitsChecksWholePath) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  cal.book({f.bc}, 0.0, 100.0, gbps(8));
  EXPECT_TRUE(cal.fits({f.ab}, 0.0, 100.0, gbps(8)));
  EXPECT_FALSE(cal.fits({f.ab, f.bc}, 0.0, 100.0, gbps(8)));
  EXPECT_TRUE(cal.fits({f.ab, f.bc}, 0.0, 100.0, gbps(2)));
}

TEST(BandwidthCalendar, NonFittingBookThrows) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  cal.book({f.ab}, 0.0, 100.0, gbps(9));
  EXPECT_THROW(cal.book({f.ab}, 50.0, 80.0, gbps(2)), gridvc::PreconditionError);
}

TEST(BandwidthCalendar, ReleaseRestoresCapacity) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  const auto id = cal.book({f.ab}, 0.0, 100.0, gbps(9));
  cal.release(id);
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 0.0, 100.0), gbps(10));
  EXPECT_EQ(cal.active_bookings(), 0u);
  EXPECT_THROW(cal.release(id), gridvc::PreconditionError);
}

TEST(BandwidthCalendar, BackToBackWindowsDoNotConflict) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  cal.book({f.ab}, 0.0, 100.0, gbps(10));
  EXPECT_TRUE(cal.fits({f.ab}, 100.0, 200.0, gbps(10)));
  cal.book({f.ab}, 100.0, 200.0, gbps(10));
}

// Boundary semantics: windows are [start, end), so reservations touching
// at an endpoint share the instant without double-counting.
TEST(BandwidthProfile, TouchingWindowsDoNotDoubleCount) {
  BandwidthProfile p;
  p.add(0.0, 50.0, mbps(600));
  p.add(50.0, 100.0, mbps(600));
  // At the shared endpoint exactly one block is in force.
  EXPECT_DOUBLE_EQ(p.at(50.0), mbps(600));
  EXPECT_DOUBLE_EQ(p.peak(0.0, 100.0), mbps(600));
  // A window straddling only the junction still sees a single block.
  EXPECT_DOUBLE_EQ(p.peak(49.0, 51.0), mbps(600));
}

TEST(BandwidthProfile, SubQuantumRatesQuantizeAndCancelExactly) {
  // Rates live on the integer-kbit/s fixed-point grid: a positive rate
  // below one quantum rounds up to 1 kbit/s (never to invisibility), and
  // remove() with the same argument quantizes identically, so balanced
  // add/remove pairs always cancel exactly — no epsilon tests anywhere.
  BandwidthProfile p;
  const double tiny = 2.5e-4;  // far below one kbit/s quantum
  p.add(0.0, 10.0, tiny);
  EXPECT_FALSE(p.empty());
  EXPECT_DOUBLE_EQ(p.at(5.0), 1000.0);  // one quantum
  p.add(0.0, 10.0, tiny);
  p.remove(0.0, 10.0, tiny);
  EXPECT_DOUBLE_EQ(p.at(5.0), 1000.0);
  p.remove(0.0, 10.0, tiny);
  EXPECT_TRUE(p.empty());
  // Above-quantum rates round to nearest kbit/s.
  p.add(0.0, 10.0, 1234567.89);
  EXPECT_DOUBLE_EQ(p.at(5.0), 1235000.0);
  p.remove(0.0, 10.0, 1234567.89);
  EXPECT_TRUE(p.empty());
}

TEST(BandwidthProfile, EmptyWindowPeakIsZero) {
  // [t, t) contains no instant, so nothing is reserved over it — even
  // when a block is in force at t itself.
  BandwidthProfile p;
  p.add(0.0, 100.0, mbps(500));
  EXPECT_DOUBLE_EQ(p.at(50.0), mbps(500));
  EXPECT_DOUBLE_EQ(p.peak(50.0, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(p.peak(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.peak(200.0, 200.0), 0.0);
}

TEST(BandwidthCalendar, EmptyWindowHasFullAvailabilityAndFits) {
  // available(l, t, t) must not under-report from the level in force at
  // t: an instantaneous window blocks nothing, so a zero-length probe
  // (e.g. a degenerate activation window) is never spuriously rejected.
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  cal.book({f.ab, f.bc}, 0.0, 100.0, gbps(7));
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 50.0, 50.0), gbps(10));
  EXPECT_TRUE(cal.fits({f.ab, f.bc}, 50.0, 50.0, gbps(10)));
}

TEST(BandwidthProfile, FloatDustSharedTimestampCyclesLeaveNoResidue) {
  // Regression for the delta-map leak: overlapping bookings sharing a
  // timestamp (book r1, book r2, release r1, release r2) used to leave
  // near-zero float-dust entries that never erased, growing the map —
  // and every query sweep — without bound. Fixed-point deltas cancel
  // exactly, so a million cycles leave an empty tree and the live node
  // count stays bounded by the overlap depth throughout.
  BandwidthProfile p;
  const double r1 = 1234567.89;   // deliberately awkward in binary
  const double r2 = 987654.321;
  std::size_t max_nodes = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    p.add(0.0, 100.0, r1);
    p.add(0.0, 100.0, r2);   // shares both timestamps with r1
    p.remove(0.0, 100.0, r1);
    p.remove(0.0, 100.0, r2);
    max_nodes = std::max(max_nodes, p.node_count());
  }
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.node_count(), 0u);
  EXPECT_LE(max_nodes, 4u);  // never more change points than live blocks need
  EXPECT_DOUBLE_EQ(p.peak(0.0, 100.0), 0.0);
}

TEST(BandwidthCalendar, SharedTimestampBookReleaseCyclesStayBounded) {
  // The same leak shape through the public calendar API, at depth: many
  // concurrent bookings over the same window, released in mixed order.
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  for (int cycle = 0; cycle < 20'000; ++cycle) {
    std::vector<ReservationId> ids;
    for (int k = 0; k < 5; ++k) {
      ids.push_back(cal.book({f.ab, f.bc}, 10.0, 500.0, mbps(123.456 + k)));
    }
    for (int k = 0; k < 5; ++k) cal.release(ids[(k * 3) % 5]);
  }
  EXPECT_EQ(cal.active_bookings(), 0u);
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 0.0, 1000.0), gbps(10));
  EXPECT_DOUBLE_EQ(cal.available(f.bc, 0.0, 1000.0), gbps(10));
}

TEST(BandwidthCalendar, EndpointTouchingBookingsDoNotDoubleCountInPeak) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  // [a,b) + [b,c) at 6 Gbps each on a 10 Gbps link: if the junction
  // double-counted, the second booking (and the probe below) would fail.
  const auto r1 = cal.book({f.ab}, 0.0, 60.0, gbps(6));
  const auto r2 = cal.book({f.ab}, 60.0, 120.0, gbps(6));
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 0.0, 120.0), gbps(4));
  EXPECT_TRUE(cal.fits({f.ab}, 0.0, 120.0, gbps(4)));
  cal.release(r1);
  cal.release(r2);
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 0.0, 120.0), gbps(10));
}

// A flat block is the one-segment profile: both spellings book the same
// change points and hold the same segment.
TEST(BandwidthCalendar, FlatBlockIsTheOneSegmentProfile) {
  CalFixture f;
  BandwidthCalendar flat(f.topo);
  BandwidthCalendar stepped(f.topo);
  const auto a = flat.book({f.ab, f.bc}, 100.0, 200.0, gbps(8));
  const std::vector<RateSegment> one = {{100.0, 200.0, gbps(8)}};
  const auto b = stepped.book({f.ab, f.bc}, one);
  EXPECT_EQ(flat.link_deltas(f.ab), stepped.link_deltas(f.ab));
  EXPECT_EQ(flat.link_deltas(f.bc), stepped.link_deltas(f.bc));
  EXPECT_EQ(flat.booking_segments(a), one);
  EXPECT_FALSE(flat.fits({f.ab}, one));
  EXPECT_FALSE(stepped.fits({f.ab}, 100.0, 200.0, gbps(8)));
  EXPECT_TRUE(stepped.fits({f.ab}, 100.0, 200.0, gbps(2)));
  flat.release(a);
  stepped.release(b);
  EXPECT_TRUE(flat.link_deltas(f.ab).empty());
  EXPECT_TRUE(stepped.link_deltas(f.bc).empty());
}

// A release leaves no residual deltas, recycles the slot and stales the
// id: a newer booking in the same slot is not confused with it.
TEST(BandwidthCalendar, ReleaseLeavesNoDeltasAndStalesTheId) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  const auto id = cal.book({f.ab, f.bc}, 100.0, 200.0, gbps(8));
  cal.release(id);
  EXPECT_EQ(cal.active_bookings(), 0u);
  EXPECT_TRUE(cal.link_deltas(f.ab).empty());
  EXPECT_TRUE(cal.link_deltas(f.bc).empty());
  EXPECT_THROW(cal.booking_segments(id), gridvc::PreconditionError);
  const auto next = cal.book({f.ab}, 300.0, 400.0, gbps(10));
  EXPECT_NE(next, id);
  EXPECT_THROW(cal.release(id), gridvc::PreconditionError);
  cal.release(next);
  EXPECT_TRUE(cal.link_deltas(f.ab).empty());
}

TEST(BandwidthCalendar, SteppedBookingHoldsAndReleasesEverySegment) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  const std::vector<RateSegment> profile = {
      {0.0, 100.0, gbps(2)}, {100.0, 200.0, gbps(4)}, {250.0, 300.0, gbps(10)}};
  ASSERT_TRUE(cal.fits({f.ab, f.bc}, profile));
  const auto id = cal.book({f.ab, f.bc}, profile);
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 0.0, 100.0), gbps(8));
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 100.0, 200.0), gbps(6));
  EXPECT_DOUBLE_EQ(cal.available(f.bc, 200.0, 250.0), gbps(10));
  EXPECT_DOUBLE_EQ(cal.available(f.bc, 250.0, 300.0), 0.0);
  EXPECT_EQ(cal.booking_segments(id), profile);
  EXPECT_FALSE(cal.fits({f.bc}, std::vector<RateSegment>{{260.0, 270.0, gbps(1)}}));
  cal.release(id);
  EXPECT_TRUE(cal.link_deltas(f.ab).empty());
  EXPECT_TRUE(cal.link_deltas(f.bc).empty());
}

// book() refuses a malformed profile before touching any link.
TEST(BandwidthCalendar, MalformedProfilesAreRefused) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  using Profile = std::vector<RateSegment>;
  EXPECT_THROW(cal.book({f.ab}, Profile{}), gridvc::PreconditionError);
  EXPECT_THROW(cal.book({f.ab}, Profile{{10.0, 10.0, gbps(1)}}), gridvc::PreconditionError);
  EXPECT_THROW(cal.book({f.ab}, Profile{{0.0, 10.0, 0.0}}), gridvc::PreconditionError);
  EXPECT_THROW(cal.book({f.ab}, Profile{{0.0, 10.0, gbps(1)}, {5.0, 20.0, gbps(1)}}),
               gridvc::PreconditionError);
  EXPECT_EQ(cal.active_bookings(), 0u);
  EXPECT_TRUE(cal.link_deltas(f.ab).empty());
}

TEST(BandwidthCalendar, HeadroomProfileBreaksAtEveryChangePointAcrossLinks) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  cal.book({f.ab}, 50.0, 100.0, gbps(4));
  cal.book({f.bc}, 80.0, 120.0, gbps(7));
  const auto pieces = cal.headroom_profile({f.ab, f.bc}, 0.0, 150.0);
  // min across links at every instant; the change points at 100 (ab) and
  // 120 (bc) both show up, but equal-rate neighbors [80,100) and
  // [100,120) merge into one piece.
  const std::vector<RateSegment> expected = {{0.0, 50.0, gbps(10)},
                                             {50.0, 80.0, gbps(6)},
                                             {80.0, 120.0, gbps(3)},
                                             {120.0, 150.0, gbps(10)}};
  EXPECT_EQ(pieces, expected);
}

// Property: random book/release sequences never leave negative
// availability and end balanced after all releases.
class CalendarProperty : public ::testing::TestWithParam<int> {};

TEST_P(CalendarProperty, RandomOpsStayConsistent) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  gridvc::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  std::vector<ReservationId> live;
  for (int op = 0; op < 200; ++op) {
    const double t0 = rng.uniform(0.0, 1000.0);
    const double t1 = t0 + rng.uniform(1.0, 200.0);
    const double rate = mbps(rng.uniform(10.0, 4000.0));
    const Path path = rng.bernoulli(0.5) ? Path{f.ab} : Path{f.ab, f.bc};
    if (cal.fits(path, t0, t1, rate)) {
      live.push_back(cal.book(path, t0, t1, rate));
    } else if (!live.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      cal.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Availability is never negative anywhere we can observe.
    ASSERT_GE(cal.available(f.ab, 0.0, 1200.0), 0.0);
    ASSERT_GE(cal.available(f.bc, 0.0, 1200.0), 0.0);
  }
  for (ReservationId id : live) cal.release(id);
  EXPECT_DOUBLE_EQ(cal.available(f.ab, 0.0, 1200.0), gbps(10));
  EXPECT_DOUBLE_EQ(cal.available(f.bc, 0.0, 1200.0), gbps(10));
}

INSTANTIATE_TEST_SUITE_P(RandomOps, CalendarProperty, ::testing::Range(1, 17));

}  // namespace
}  // namespace gridvc::vc
