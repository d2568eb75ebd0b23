// Differential tests: the B+-tree-backed BandwidthProfile/BandwidthCalendar
// against a naive std::map sweep reference. Both sides use the same
// kbit/s fixed-point quantization, so every query must agree
// byte-for-byte (exact double equality), across randomized
// add/remove/truncate and book/release/truncate sequences. The real
// structures truncate a block the way an early teardown does, by
// releasing it and booking its head; the reference moves the end marker.
#include "vc/bandwidth_calendar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"

namespace gridvc::vc {
namespace {

using net::LinkId;
using net::NodeId;
using net::NodeKind;
using net::Path;
using net::Topology;

/// Naive reference profile: the PR-4-era delta map, but on the same
/// integer-kbit/s grid as the real structure. Queries sweep the whole
/// map from t = 0 — O(n), obviously correct.
class RefProfile {
 public:
  void add(Seconds start, Seconds end, BitsPerSecond rate) {
    apply(start, quantize_rate_kbps(rate));
    apply(end, -quantize_rate_kbps(rate));
  }
  void remove(Seconds start, Seconds end, BitsPerSecond rate) {
    apply(start, -quantize_rate_kbps(rate));
    apply(end, quantize_rate_kbps(rate));
  }
  void shift_end(Seconds old_end, Seconds new_end, BitsPerSecond rate) {
    apply(old_end, quantize_rate_kbps(rate));
    apply(new_end, -quantize_rate_kbps(rate));
  }
  BitsPerSecond peak(Seconds start, Seconds end) const {
    if (start >= end) return 0.0;
    // Entry level (last change at or before `start`), then every change
    // point strictly inside the window.
    RateKbps entry = 0;
    for (const auto& [when, delta] : deltas_) {
      if (when > start) break;
      entry += delta;
    }
    RateKbps best = entry;
    RateKbps level = 0;
    for (const auto& [when, delta] : deltas_) {
      level += delta;
      if (when > start && when < end) best = std::max(best, level);
    }
    return static_cast<double>(std::max<RateKbps>(best, 0)) * 1000.0;
  }
  BitsPerSecond at(Seconds t) const {
    RateKbps level = 0;
    for (const auto& [when, delta] : deltas_) {
      if (when > t) break;
      level += delta;
    }
    return static_cast<double>(std::max<RateKbps>(level, 0)) * 1000.0;
  }
  bool empty() const { return deltas_.empty(); }
  std::size_t node_count() const { return deltas_.size(); }

 private:
  void apply(Seconds t, RateKbps d) {
    const auto it = deltas_.emplace(t, 0).first;
    it->second += d;
    if (it->second == 0) deltas_.erase(it);
  }
  std::map<Seconds, RateKbps> deltas_;
};

class ProfileDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ProfileDifferential, RandomizedOpsAgreeByteForByte) {
  gridvc::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6007 + 13);
  BandwidthProfile p;
  RefProfile ref;
  // Live blocks eligible for remove/truncate (kept balanced with adds).
  struct Block {
    Seconds start, end;
    BitsPerSecond rate;
  };
  std::vector<Block> live;
  // A small time pool forces shared timestamps (the leak-prone shape);
  // fresh uniform draws exercise arbitrary coordinates.
  const double pool[] = {0.0, 10.0, 60.0, 60.0, 300.0, 1000.0, 86400.0};
  auto draw_time = [&]() -> double {
    if (rng.bernoulli(0.5)) return pool[rng.uniform_int(0, 6)];
    return rng.uniform(0.0, 100000.0);
  };
  for (int op = 0; op < 2000; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 5 || live.empty()) {
      double t0 = draw_time();
      double t1 = draw_time();
      if (t0 > t1) std::swap(t0, t1);
      if (t0 == t1) t1 = t0 + rng.uniform(1.0, 500.0);
      const double rate = rng.uniform(1.0, 5e9);
      p.add(t0, t1, rate);
      ref.add(t0, t1, rate);
      live.push_back({t0, t1, rate});
    } else if (kind < 8) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      p.remove(live[i].start, live[i].end, live[i].rate);
      ref.remove(live[i].start, live[i].end, live[i].rate);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      Block& b = live[i];
      const double new_end = rng.uniform(b.start, b.end);
      if (new_end > b.start && new_end < b.end) {
        p.remove(b.start, b.end, b.rate);
        p.add(b.start, new_end, b.rate);
        ref.shift_end(b.end, new_end, b.rate);
        b.end = new_end;
      }
    }
    // Point and window probes after every mutation.
    const double qt = draw_time();
    ASSERT_EQ(p.at(qt), ref.at(qt)) << "op " << op;
    double q0 = draw_time(), q1 = draw_time();
    if (q0 > q1) std::swap(q0, q1);
    ASSERT_EQ(p.peak(q0, q1), ref.peak(q0, q1)) << "op " << op;
    ASSERT_EQ(p.peak(q0, q0), 0.0) << "op " << op;
    ASSERT_EQ(p.empty(), ref.empty()) << "op " << op;
    ASSERT_EQ(p.node_count(), ref.node_count()) << "op " << op;
  }
  // Drain: the structures must return to exactly empty together.
  for (const Block& b : live) {
    p.remove(b.start, b.end, b.rate);
    ref.remove(b.start, b.end, b.rate);
  }
  EXPECT_TRUE(p.empty());
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(p.node_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileDifferential, ::testing::Range(1, 9));

struct CalFixture {
  Topology topo;
  LinkId ab, bc;
  CalFixture() {
    const NodeId a = topo.add_node("a", NodeKind::kHost);
    const NodeId b = topo.add_node("b", NodeKind::kRouter);
    const NodeId c = topo.add_node("c", NodeKind::kHost);
    ab = topo.add_link(a, b, gbps(100), 0.001);
    bc = topo.add_link(b, c, gbps(100), 0.001);
  }
};

class CalendarDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CalendarDifferential, BookReleaseTruncateAgreeWithReference) {
  CalFixture f;
  BandwidthCalendar cal(f.topo);
  RefProfile ref_ab, ref_bc;
  gridvc::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  struct Live {
    ReservationId id;
    Path path;
    Seconds start, end;
    BitsPerSecond rate;
  };
  std::vector<Live> live;
  auto ref_for = [&](LinkId l) -> RefProfile& { return l == f.ab ? ref_ab : ref_bc; };
  for (int op = 0; op < 1500; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 5 || live.empty()) {
      const double t0 = rng.uniform(0.0, 5000.0);
      const double t1 = t0 + rng.uniform(1.0, 600.0);
      const double rate = mbps(rng.uniform(1.0, 2000.0));
      const Path path = rng.bernoulli(0.5) ? Path{f.ab} : Path{f.ab, f.bc};
      if (cal.fits(path, t0, t1, rate)) {
        const ReservationId id = cal.book(path, t0, t1, rate);
        for (LinkId l : path) ref_for(l).add(t0, t1, rate);
        live.push_back({id, path, t0, t1, rate});
      }
    } else if (kind < 8) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      cal.release(live[i].id);
      for (LinkId l : live[i].path) {
        ref_for(l).remove(live[i].start, live[i].end, live[i].rate);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      Live& b = live[i];
      const double new_end = rng.uniform(b.start, b.end);
      if (new_end > b.start && new_end < b.end) {
        cal.release(b.id);
        b.id = cal.book(b.path, b.start, new_end, b.rate);
        for (LinkId l : b.path) ref_for(l).shift_end(b.end, new_end, b.rate);
        b.end = new_end;
      }
    }
    const double q0 = rng.uniform(0.0, 6000.0);
    const double q1 = q0 + rng.uniform(0.0, 600.0);
    ASSERT_EQ(cal.available(f.ab, q0, q1),
              std::max(0.0, gbps(100) - ref_ab.peak(q0, q1)))
        << "op " << op;
    ASSERT_EQ(cal.available(f.bc, q0, q1),
              std::max(0.0, gbps(100) - ref_bc.peak(q0, q1)))
        << "op " << op;
  }
  for (const Live& b : live) cal.release(b.id);
  EXPECT_EQ(cal.active_bookings(), 0u);
  EXPECT_EQ(cal.available(f.ab, 0.0, 6000.0), gbps(100));
  EXPECT_EQ(cal.available(f.bc, 0.0, 6000.0), gbps(100));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarDifferential, ::testing::Range(1, 9));

}  // namespace
}  // namespace gridvc::vc
