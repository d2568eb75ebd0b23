#include "vc/idc.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/routing.hpp"
#include "shard/partition.hpp"
#include "workload/federation.hpp"

namespace gridvc::vc {
namespace {

using net::NodeId;
using net::NodeKind;
using net::Topology;

struct Fixture {
  sim::Simulator sim;
  Topology topo;
  NodeId a, b, c;

  Fixture() {
    a = topo.add_node("a", NodeKind::kHost, "left");
    const NodeId r1 = topo.add_node("r1", NodeKind::kRouter, "core");
    const NodeId r2 = topo.add_node("r2", NodeKind::kRouter, "core");
    b = topo.add_node("b", NodeKind::kHost, "right");
    c = topo.add_node("c", NodeKind::kHost, "right");
    topo.add_duplex_link(a, r1, gbps(10), 0.001);
    topo.add_duplex_link(r1, r2, gbps(10), 0.010);
    topo.add_duplex_link(r2, b, gbps(10), 0.001);
    topo.add_duplex_link(r2, c, gbps(10), 0.001);
  }

  ReservationRequest request(Seconds start, Seconds end, BitsPerSecond bw = gbps(2)) {
    ReservationRequest r;
    r.src = a;
    r.dst = b;
    r.bandwidth = bw;
    r.start_time = start;
    r.end_time = end;
    return r;
  }
};

TEST(Idc, AdvanceReservationActivatesAtStartTime) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  Seconds activated = -1.0;
  const auto result = idc.create_reservation(
      f.request(500.0, 900.0), [&](const Circuit& c) { activated = c.active_at; });
  ASSERT_TRUE(result.accepted());
  f.sim.run();
  EXPECT_DOUBLE_EQ(activated, 500.0);
  EXPECT_EQ(idc.stats().released, 1u);
  EXPECT_EQ(idc.live_circuit_count(), 0u);
}

TEST(Idc, BatchedImmediateHasAtLeastOneMinuteSetup) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kBatchedAutomatic;
  Idc idc(f.sim, f.topo, cfg);
  // Submit at t=10 for immediate use: earliest batch boundary at least
  // one full interval later is t=120.
  f.sim.schedule_at(10.0, [&] {
    const auto r = idc.request_immediate(f.a, f.b, gbps(1), 300.0);
    ASSERT_TRUE(r.accepted());
  });
  f.sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(idc.predicted_activation(10.0, 10.0), 120.0);
  EXPECT_GE(idc.predicted_activation(10.0, 10.0) - 10.0, 60.0);
}

TEST(Idc, BatchedSetupDelayBounds) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kBatchedAutomatic;
  Idc idc(f.sim, f.topo, cfg);
  // For any submit time, the immediate-use delay lies in [60, 120).
  for (double t : {0.0, 1.0, 59.9, 60.0, 61.0, 119.0, 3601.5}) {
    const double delay = idc.predicted_activation(t, t) - t;
    EXPECT_GE(delay, 60.0 - 1e-9) << "submit at " << t;
    EXPECT_LT(delay, 120.0) << "submit at " << t;
  }
}

TEST(Idc, ImmediateSignalingUses50ms) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  cfg.immediate_setup_delay = 0.05;
  Idc idc(f.sim, f.topo, cfg);
  Seconds activated = -1.0;
  const auto r = idc.request_immediate(f.a, f.b, gbps(1), 100.0,
                                       [&](const Circuit& c) { activated = c.active_at; });
  ASSERT_TRUE(r.accepted());
  f.sim.run();
  EXPECT_DOUBLE_EQ(activated, 0.05);
}

TEST(Idc, ReleasesAtEndTime) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  Seconds released = -1.0;
  idc.create_reservation(f.request(10.0, 50.0), nullptr,
                         [&](const Circuit& c) { released = c.released_at; });
  f.sim.run();
  EXPECT_DOUBLE_EQ(released, 50.0);
}

TEST(Idc, RejectsWhenBandwidthExhausted) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  const auto first = idc.create_reservation(f.request(100.0, 200.0, gbps(7)));
  ASSERT_TRUE(first.accepted());
  const auto second = idc.create_reservation(f.request(150.0, 250.0, gbps(7)));
  EXPECT_FALSE(second.accepted());
  EXPECT_EQ(second.reason, RejectReason::kInsufficientBandwidth);
  // Disjoint window is fine.
  const auto third = idc.create_reservation(f.request(200.0, 300.0, gbps(7)));
  EXPECT_TRUE(third.accepted());
}

TEST(Idc, RejectsDisconnectedEndpoints) {
  Fixture f;
  const NodeId island = f.topo.add_node("island", NodeKind::kHost, "x");
  Idc idc(f.sim, f.topo);
  ReservationRequest r = f.request(0.0, 100.0);
  r.dst = island;
  const auto result = idc.create_reservation(r);
  EXPECT_FALSE(result.accepted());
  EXPECT_EQ(result.reason, RejectReason::kNoRoute);
}

TEST(Idc, RejectionAcrossAFailedLinkReportsBandwidthNotRoute) {
  // The only a -> b route crosses r1 -> r2. With that link failed the
  // circuit search finds no path, but the probe that tells "no route"
  // from "no bandwidth" ignores failures: the endpoints are connected.
  Fixture f;
  Idc idc(f.sim, f.topo);
  const auto route = net::shortest_path(f.topo, f.a, f.b);
  ASSERT_TRUE(route.has_value());
  ASSERT_EQ(route->size(), 3u);
  idc.handle_link_failure((*route)[1]);
  const auto result = idc.create_reservation(f.request(0.0, 100.0));
  EXPECT_FALSE(result.accepted());
  EXPECT_EQ(result.reason, RejectReason::kInsufficientBandwidth);
  // Once the link is back, the same request fits.
  idc.restore_link((*route)[1]);
  EXPECT_TRUE(idc.create_reservation(f.request(0.0, 100.0)).accepted());
}

TEST(Idc, RejectsInvalidRequests) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  EXPECT_EQ(idc.create_reservation(f.request(100.0, 100.0)).reason,
            RejectReason::kInvalidRequest);
  EXPECT_EQ(idc.create_reservation(f.request(0.0, 100.0, 0.0)).reason,
            RejectReason::kInvalidRequest);
  ReservationRequest same = f.request(0.0, 100.0);
  same.dst = same.src;
  EXPECT_EQ(idc.create_reservation(same).reason, RejectReason::kInvalidRequest);
}

TEST(Idc, RejectsWindowShorterThanSetup) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kBatchedAutomatic;
  Idc idc(f.sim, f.topo, cfg);
  // Wants the circuit to end before the batch boundary could set it up.
  EXPECT_EQ(idc.create_reservation(f.request(0.0, 30.0)).reason,
            RejectReason::kInvalidRequest);
}

TEST(Idc, CancelBeforeActivationFreesBandwidth) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  const auto r = idc.create_reservation(f.request(100.0, 200.0, gbps(8)));
  ASSERT_TRUE(r.accepted());
  idc.cancel(*r.circuit_id);
  EXPECT_EQ(idc.stats().cancelled, 1u);
  EXPECT_EQ(idc.live_circuit_count(), 0u);
  EXPECT_TRUE(idc.create_reservation(f.request(100.0, 200.0, gbps(8))).accepted());
}

TEST(Idc, CancelAfterActivationThrows) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  const auto r = idc.create_reservation(f.request(1.0, 500.0));
  f.sim.run_until(10.0);
  EXPECT_THROW(idc.cancel(*r.circuit_id), gridvc::PreconditionError);
}

TEST(Idc, ReleaseNowFreesTailForOthers) {
  Fixture f;
  IdcConfig cfg;
  cfg.mode = SignalingMode::kImmediate;
  Idc idc(f.sim, f.topo, cfg);
  const auto r = idc.create_reservation(f.request(1.0, 1000.0, gbps(8)));
  ASSERT_TRUE(r.accepted());
  f.sim.run_until(100.0);
  idc.release_now(*r.circuit_id);
  EXPECT_EQ(idc.stats().released, 1u);
  EXPECT_EQ(idc.live_circuit_count(), 0u);
  EXPECT_TRUE(idc.create_reservation(f.request(200.0, 400.0, gbps(8))).accepted());
}

TEST(Idc, StatsTrackOutcomes) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  idc.create_reservation(f.request(100.0, 200.0, gbps(7)));
  idc.create_reservation(f.request(100.0, 200.0, gbps(7)));  // rejected
  idc.create_reservation(f.request(0.0, 0.0));               // invalid
  const auto& s = idc.stats();
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.rejected_no_bandwidth, 1u);
  EXPECT_EQ(s.rejected_invalid, 1u);
  EXPECT_NEAR(s.blocking_probability(), 1.0 / 3.0, 1e-12);
}

TEST(Idc, PathAvoidsCongestedLink) {
  // Two disjoint routes a->b; fill one with a reservation and verify the
  // next circuit takes the other.
  sim::Simulator sim;
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::kHost);
  const NodeId r1 = topo.add_node("r1", NodeKind::kRouter);
  const NodeId r2 = topo.add_node("r2", NodeKind::kRouter);
  const NodeId b = topo.add_node("b", NodeKind::kHost);
  topo.add_duplex_link(a, r1, gbps(10), 0.001);
  topo.add_duplex_link(a, r2, gbps(10), 0.002);
  topo.add_duplex_link(r1, b, gbps(10), 0.001);
  topo.add_duplex_link(r2, b, gbps(10), 0.002);
  Idc idc(sim, topo);

  ReservationRequest req;
  req.src = a;
  req.dst = b;
  req.bandwidth = gbps(6);
  req.start_time = 100.0;
  req.end_time = 200.0;
  const auto first = idc.create_reservation(req);
  ASSERT_TRUE(first.accepted());
  const auto second = idc.create_reservation(req);
  ASSERT_TRUE(second.accepted());
  // Paths must be link-disjoint (each route has only 4 Gbps left).
  const auto& p1 = idc.circuit(*first.circuit_id).path;
  const auto& p2 = idc.circuit(*second.circuit_id).path;
  for (net::LinkId l1 : p1) {
    for (net::LinkId l2 : p2) EXPECT_NE(l1, l2);
  }
}

// Regression: a rejected demand that is retried and rejected again must
// count as ONE blocked demand, not two. The retry's rejection lands in
// rejected_retries only; per-reason counters and blocking_probability()
// are unchanged by it.
TEST(Idc, RetriedRejectionDoesNotDoubleCountBlocking) {
  Fixture f;
  Idc idc(f.sim, f.topo);
  // Saturate the a->b window, then ask for more than the headroom.
  ASSERT_TRUE(idc.create_reservation(f.request(0.0, 1000.0, gbps(9))).accepted());
  auto demand = f.request(0.0, 1000.0, gbps(5));
  const auto first = idc.create_reservation(demand);
  ASSERT_FALSE(first.accepted());
  EXPECT_EQ(first.reason, RejectReason::kInsufficientBandwidth);
  EXPECT_EQ(idc.stats().rejected_no_bandwidth, 1u);
  EXPECT_EQ(idc.stats().rejected_retries, 0u);
  const double blocking_after_first = idc.stats().blocking_probability();

  // Retry the same demand (still too big): the true reason is still
  // reported to the caller, but the blocked-demand accounting is frozen.
  demand.is_retry = true;
  const auto second = idc.create_reservation(demand);
  ASSERT_FALSE(second.accepted());
  EXPECT_EQ(second.reason, RejectReason::kInsufficientBandwidth);
  EXPECT_EQ(idc.stats().rejected_no_bandwidth, 1u);
  EXPECT_EQ(idc.stats().rejected_retries, 1u);
  EXPECT_DOUBLE_EQ(idc.stats().blocking_probability(), blocking_after_first);

  // A successful retry at a feasible rate counts as an accept as usual.
  demand.bandwidth = gbps(1);
  const auto third = idc.create_reservation(demand);
  ASSERT_TRUE(third.accepted());
  EXPECT_EQ(idc.stats().accepted, 2u);
  EXPECT_EQ(idc.stats().rejected_retries, 1u);
}

// compute() answers from the memoised least-delay tree whenever every
// link on it has headroom and searches otherwise; both must give exactly
// the constrained search's path. The topologies are random duplex rings
// with chords, many equal and some zero delays (so tie-breaks decide),
// random rates and windows, and bookings of the returned paths. Failed
// links toggle through the policy, with invalidate() after each change.
TEST(PathComputer, CachedPathMatchesConstrainedSearch) {
  Rng rng(1912);
  const Seconds delays[] = {0.0, 0.001, 0.001, 0.001, 0.002, 0.005};
  const BitsPerSecond capacities[] = {gbps(1), gbps(2), gbps(5), gbps(10)};
  std::size_t queries = 0, from_cache = 0, searched = 0;
  for (int t = 0; t < 40; ++t) {
    Topology topo;
    const auto nodes = static_cast<NodeId>(rng.uniform_int(4, 24));
    for (NodeId n = 0; n < nodes; ++n) {
      topo.add_node("n" + std::to_string(n), NodeKind::kRouter);
    }
    const auto add = [&](NodeId a, NodeId b) {
      topo.add_duplex_link(a, b, capacities[rng.uniform_int(0, 3)],
                           delays[rng.uniform_int(0, 5)]);
    };
    for (NodeId n = 0; n < nodes; ++n) add(n, (n + 1) % nodes);
    const auto chords = rng.uniform_int(0, 2 * static_cast<std::int64_t>(nodes));
    for (std::int64_t k = 0; k < chords; ++k) {
      const auto a = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
      auto b = static_cast<NodeId>(rng.uniform_int(0, nodes - 2));
      if (b >= a) ++b;
      add(a, b);
    }
    const auto links = static_cast<std::int64_t>(topo.link_count());

    BandwidthCalendar calendar(topo);
    std::set<net::LinkId> failed;
    const LinkPolicy policy = [&](net::LinkId l) { return !failed.contains(l); };
    PathComputer paths(topo, calendar, policy);
    std::vector<ReservationId> booked;
    for (int q = 0; q < 2500; ++q) {
      if (rng.bernoulli(0.02)) {
        const auto l = static_cast<net::LinkId>(rng.uniform_int(0, links - 1));
        if (failed.erase(l) == 0) failed.insert(l);
        paths.invalidate();
      }
      if (!booked.empty() && rng.bernoulli(0.35)) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(booked.size()) - 1));
        calendar.release(booked[k]);
        booked[k] = booked.back();
        booked.pop_back();
      }
      const auto src = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
      auto dst = static_cast<NodeId>(rng.uniform_int(0, nodes - 2));
      if (dst >= src) ++dst;
      const BitsPerSecond rate = mbps(100.0 * static_cast<double>(rng.uniform_int(1, 40)));
      const Seconds start = rng.uniform(0.0, 1000.0);
      const Seconds end = start + rng.uniform(1.0, 500.0);

      const auto expected = net::shortest_path(topo, src, dst, [&](net::LinkId l) {
        return policy(l) && calendar.available(l, start, end) >= rate;
      });
      net::Path got;
      const bool found = paths.compute(src, dst, rate, start, end, got);
      ASSERT_EQ(found, expected.has_value()) << "topology " << t << " query " << q;
      ++queries;
      if (!found) continue;
      ASSERT_EQ(got, *expected) << "topology " << t << " query " << q;
      net::Path least_delay;
      ASSERT_TRUE(paths.shortest(src, dst, least_delay));
      if (got == least_delay) {
        ++from_cache;
      } else {
        ++searched;
      }
      if (rng.bernoulli(0.4)) booked.push_back(calendar.book(got, start, end, rate));
    }
  }
  // Both branches must have run, and often.
  EXPECT_GT(from_cache, queries / 4);
  EXPECT_GT(searched, queries / 50);
}

// A 9x9 grid of routers joined by duplex links, every link `delay` long:
// with equal (or zero) delays most pairs have many least-delay paths, and
// the smaller-link-id tie-break picks one.
Topology grid(Seconds delay) {
  constexpr NodeId kSide = 9;
  Topology topo;
  for (NodeId n = 0; n < kSide * kSide; ++n) {
    topo.add_node("g" + std::to_string(n), NodeKind::kRouter);
  }
  for (NodeId r = 0; r < kSide; ++r) {
    for (NodeId c = 0; c < kSide; ++c) {
      const NodeId n = r * kSide + c;
      if (c + 1 < kSide) topo.add_duplex_link(n, n + 1, gbps(10), delay);
      if (r + 1 < kSide) topo.add_duplex_link(n, n + kSide, gbps(10), delay);
    }
  }
  return topo;
}

// Every path shortest() reads off its source's tree must be the one the
// search that stops at dst finds, for every ordered pair.
void expect_trees_match_search(const Topology& topo, const LinkPolicy& policy,
                               const std::string& label) {
  BandwidthCalendar calendar(topo);
  PathComputer paths(topo, calendar, policy);
  net::Path got;
  for (NodeId src = 0; src < topo.node_count(); ++src) {
    for (NodeId dst = 0; dst < topo.node_count(); ++dst) {
      const auto expected = net::shortest_path(topo, src, dst, policy);
      const bool found = paths.shortest(src, dst, got);
      ASSERT_EQ(found, expected.has_value()) << label << " " << src << "->" << dst;
      if (found) {
        ASSERT_EQ(got, *expected) << label << " " << src << "->" << dst;
      }
    }
  }
}

TEST(PathComputer, TreePathsEqualTheSearchOnFederationDomains) {
  workload::FederationConfig config;
  config.sites = 6;
  config.hosts_per_site = 3;
  config.users = 10;
  for (const std::uint64_t seed : {7u, 91u}) {
    const auto scenario = workload::build_federation(config, seed);
    const shard::DomainPartition part(scenario.topo);
    for (std::uint32_t d = 0; d < part.domain_count(); ++d) {
      expect_trees_match_search(part.domain(d).topo, nullptr,
                                "seed " + std::to_string(seed) + " domain " +
                                    part.domain(d).name);
    }
    expect_trees_match_search(scenario.topo, nullptr, "seed " + std::to_string(seed) +
                                                          " global");
  }
}

TEST(PathComputer, TreePathsEqualTheSearchOnGridsWithTiedDelays) {
  expect_trees_match_search(grid(0.001), nullptr, "equal delays");
  expect_trees_match_search(grid(0.0), nullptr, "zero delays");
  // A policy that drops every 7th link leaves fewer, longer ties.
  const Topology topo = grid(0.001);
  expect_trees_match_search(topo, [](net::LinkId l) { return l % 7 != 0; }, "policy");
}

// The IDC's trees follow its failed links: after handle_link_failure and
// after restore_link, every pair's circuit takes the least-delay path
// around exactly the links failed at that moment.
TEST(PathComputer, IdcPathsFollowFailureAndRestore) {
  sim::Simulator sim;
  const Topology topo = grid(0.001);
  Idc idc(sim, topo);
  std::set<net::LinkId> failed;
  const auto check_every_pair = [&](const std::string& label) {
    for (NodeId src = 0; src < topo.node_count(); ++src) {
      for (NodeId dst = 0; dst < topo.node_count(); ++dst) {
        if (src == dst) continue;
        const auto expected = net::shortest_path(
            topo, src, dst, [&](net::LinkId l) { return !failed.contains(l); });
        ReservationRequest request;
        request.src = src;
        request.dst = dst;
        request.bandwidth = mbps(1);
        request.start_time = 500.0;
        request.end_time = 600.0;
        const auto r = idc.create_reservation(request);
        ASSERT_EQ(r.accepted(), expected.has_value()) << label << " " << src << "->" << dst;
        if (!r.accepted()) continue;
        ASSERT_EQ(idc.circuit(*r.circuit_id).path, *expected)
            << label << " " << src << "->" << dst;
        idc.cancel(*r.circuit_id);
      }
    }
  };
  check_every_pair("before");
  // Fail the first two links of the corner-to-corner path, then restore
  // them: each call must drop the trees built before it.
  const net::Path corner = *net::shortest_path(topo, 0, 80);
  for (const net::LinkId l : {corner[0], corner[1]}) {
    idc.handle_link_failure(l);
    failed.insert(l);
  }
  check_every_pair("failed");
  for (const net::LinkId l : {corner[0], corner[1]}) {
    idc.restore_link(l);
    failed.erase(l);
  }
  check_every_pair("restored");
}

}  // namespace
}  // namespace gridvc::vc
