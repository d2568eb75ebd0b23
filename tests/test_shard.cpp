// Sharded multi-domain simulation: partition correctness, path cutting,
// the federation scenario generator, inter-domain chain booking and
// rollback, and — the load-bearing property — byte-identical digests at
// every shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "obs/trace.hpp"
#include "shard/partition.hpp"
#include "shard/sharded_simulation.hpp"
#include "vc/reservation.hpp"
#include "workload/federation.hpp"

namespace gridvc {
namespace {

workload::FederationConfig small_config() {
  workload::FederationConfig config;
  config.sites = 5;
  config.hosts_per_site = 2;
  config.users = 60;
  config.transfers_per_user = 2;
  config.file_size = 8ULL << 20;
  config.arrival_horizon = 30.0;
  config.think_time = 1.0;
  config.remote_fraction = 0.5;
  config.vc_fraction = 0.5;
  return config;
}

net::Path route_of(const workload::FederationScenario& s, std::uint64_t u,
                   const workload::FederationTransfer& t) {
  net::Path path;
  s.route(u, t, path);
  return path;
}

net::Path as_path(std::span<const net::LinkId> links) {
  return net::Path(links.begin(), links.end());
}

TEST(Federation, TopologyShapeAndDomains) {
  const auto s = workload::build_federation(small_config(), 42);
  // 5 sites x (border + edge + 2 hosts) nodes.
  EXPECT_EQ(s.topo.node_count(), 5u * 4u);
  EXPECT_EQ(s.sites.size(), 5u);
  for (std::size_t i = 0; i < s.sites.size(); ++i) {
    const auto& site = s.topo.node(s.sites[i].border);
    EXPECT_EQ(site.domain, s.topo.node(s.sites[i].edge).domain);
    for (net::NodeId h : s.sites[i].hosts) {
      EXPECT_EQ(s.topo.node(h).domain, site.domain);
    }
  }
}

TEST(Federation, SiteNamesSortInSiteOrder) {
  // The partition orders domains lexicographically; zero-padded names make
  // that order equal the numeric site order even past 10 sites.
  auto config = small_config();
  config.sites = 12;
  const auto s = workload::build_federation(config, 1);
  const shard::DomainPartition part(s.topo);
  ASSERT_EQ(part.domain_count(), 12u);
  for (std::uint32_t d = 0; d < part.domain_count(); ++d) {
    EXPECT_EQ(part.domain_index(s.topo.node(s.sites[d].border).domain), d);
    EXPECT_EQ(part.domain_of(s.sites[d].border), d);
  }
}

TEST(Federation, RouteTableMatchesPairwiseSearch) {
  // build_federation reads each site's routes off one least-delay tree
  // over the WAN. Every route must be the one a search between the two
  // borders over the whole topology finds, tie-breaks included.
  for (const std::size_t sites : {2u, 3u, 7u, 10u, 21u, 24u}) {
    for (const std::size_t stride : {0u, 3u, 4u}) {
      for (const std::uint64_t seed : {1ULL, 3ULL, 91ULL}) {
        auto config = small_config();
        config.sites = sites;
        config.chord_stride = stride;
        const auto s = workload::build_federation(config, seed);
        ASSERT_EQ(s.site_route.size(), sites);
        for (std::size_t a = 0; a < sites; ++a) {
          ASSERT_EQ(s.site_route[a].size(), sites);
          EXPECT_TRUE(s.site_route[a][a].empty());
          for (std::size_t b = 0; b < sites; ++b) {
            if (a == b) continue;
            const auto expected =
                net::shortest_path(s.topo, s.sites[a].border, s.sites[b].border);
            ASSERT_TRUE(expected.has_value());
            EXPECT_EQ(s.site_route[a][b], *expected)
                << sites << " sites, chord stride " << stride << ", seed " << seed
                << ": site " << a << " to site " << b;
          }
        }
      }
    }
  }
}

TEST(Federation, TransferParamsArePureAndInRange) {
  const auto s = workload::build_federation(small_config(), 7);
  for (std::uint64_t u = 0; u < s.config.users; ++u) {
    for (std::uint32_t k = 0; k < s.config.transfers_per_user; ++k) {
      const auto a = s.transfer_params(u, k);
      const auto b = s.transfer_params(u, k);
      EXPECT_EQ(a.dst_site, b.dst_site);
      EXPECT_EQ(a.size, b.size);
      EXPECT_EQ(a.wants_vc, b.wants_vc);
      ASSERT_LT(a.dst_site, s.config.sites);
      ASSERT_LT(a.dst_host, s.config.hosts_per_site);
      // Never a self-transfer.
      const bool same_host = a.dst_site == s.origin_site(u) &&
                             a.dst_host == s.origin_host(u);
      EXPECT_FALSE(same_host);
      EXPECT_GE(a.size, 1ULL << 20);
      // The route is valid in the global topology.
      const auto path = route_of(s, u, a);
      const auto src = s.sites[s.origin_site(u)].hosts[s.origin_host(u)];
      const auto dst = s.sites[a.dst_site].hosts[a.dst_host];
      EXPECT_TRUE(s.topo.is_valid_path(path, src, dst));
    }
  }
}

TEST(Partition, GatewaysAreDuplexAndLookaheadIsMinDelay) {
  const auto s = workload::build_federation(small_config(), 42);
  const shard::DomainPartition part(s.topo);
  ASSERT_FALSE(part.gateways().empty());
  Seconds lo = 1e9;
  for (const auto& gw : part.gateways()) {
    lo = std::min(lo, gw.delay);
    ASSERT_NE(gw.reverse, shard::DomainPartition::kNoGateway);
    const auto& rev = part.gateways()[gw.reverse];
    EXPECT_EQ(rev.global_from, gw.global_to);
    EXPECT_EQ(rev.global_to, gw.global_from);
    EXPECT_NE(gw.src_domain, gw.dst_domain);
  }
  EXPECT_DOUBLE_EQ(part.lookahead(), lo);
  EXPECT_GE(part.lookahead(), small_config().interdomain_delay_min);
}

TEST(Partition, LocalTopologiesCoverAllNodesOnce) {
  const auto s = workload::build_federation(small_config(), 42);
  const shard::DomainPartition part(s.topo);
  // Every global node has exactly one owner: one local node of its
  // domain, carrying its name, that no other global node maps to.
  std::set<std::pair<std::uint32_t, net::NodeId>> owners;
  for (net::NodeId n = 0; n < s.topo.node_count(); ++n) {
    const std::uint32_t d = part.domain_of(n);
    ASSERT_LT(d, part.domain_count());
    const net::NodeId local = part.local_node(n);
    ASSERT_LT(local, part.domain(d).topo.node_count());
    EXPECT_EQ(part.domain(d).topo.node(local).name, s.topo.node(n).name);
    EXPECT_TRUE(owners.emplace(d, local).second) << s.topo.node(n).name;
  }
  // The domains' other nodes are the gateway proxies, one per egress.
  std::size_t local_nodes = 0;
  for (std::uint32_t d = 0; d < part.domain_count(); ++d) {
    local_nodes += part.domain(d).topo.node_count();
    // 2 hosts per site in small_config.
    EXPECT_EQ(part.domain(d).global_hosts.size(), 2u);
  }
  EXPECT_EQ(local_nodes, s.topo.node_count() + part.gateways().size());
}

TEST(Partition, CutPathProducesChainedLegs) {
  const auto s = workload::build_federation(small_config(), 42);
  const shard::DomainPartition part(s.topo);
  // Find a remote transfer to cut.
  for (std::uint64_t u = 0; u < s.config.users; ++u) {
    const auto t = s.transfer_params(u, 0);
    if (t.dst_site == s.origin_site(u)) continue;
    const auto path = route_of(s, u, t);
    const auto legs = part.cut_path(path);
    ASSERT_GE(legs.size(), 2u);
    EXPECT_EQ(legs.front().domain, part.domain_of(s.sites[s.origin_site(u)].border));
    EXPECT_EQ(legs.back().domain, part.domain_of(s.sites[t.dst_site].border));
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const auto& leg = legs[i];
      const bool last = i + 1 == legs.size();
      EXPECT_EQ(leg.exit_gateway == shard::DomainPartition::kNoGateway, last);
      if (!last) {
        const auto& gw = part.gateways()[leg.exit_gateway];
        EXPECT_EQ(gw.src_domain, leg.domain);
        EXPECT_EQ(gw.dst_domain, legs[i + 1].domain);
      }
      if (!leg.local_path.empty()) {
        EXPECT_TRUE(part.domain(leg.domain)
                        .topo.is_valid_path(leg.local_path, leg.local_src, leg.local_dst));
      }
    }
    return;
  }
  FAIL() << "no remote transfer in the scenario";
}

TEST(Partition, IntraSitePathIsOneLeg) {
  const auto s = workload::build_federation(small_config(), 42);
  const shard::DomainPartition part(s.topo);
  for (std::uint64_t u = 0; u < s.config.users; ++u) {
    const auto t = s.transfer_params(u, 0);
    if (t.dst_site != s.origin_site(u)) continue;
    const auto legs = part.cut_path(route_of(s, u, t));
    ASSERT_EQ(legs.size(), 1u);
    EXPECT_EQ(legs[0].exit_gateway, shard::DomainPartition::kNoGateway);
    return;
  }
  FAIL() << "no intra-site transfer in the scenario";
}

TEST(Partition, HostEndpointsAdoptNeighborRouterDomains) {
  // Untagged hosts live in their router's domain, so each access link
  // rides in that domain's leg: a west leg with the a->w access link and
  // the egress proxy, then an east leg with the e->b access link.
  net::Topology topo;
  const net::NodeId a = topo.add_node("a", net::NodeKind::kHost, "");
  const net::NodeId w = topo.add_node("w", net::NodeKind::kRouter, "west");
  const net::NodeId e = topo.add_node("e", net::NodeKind::kRouter, "east");
  const net::NodeId b = topo.add_node("b", net::NodeKind::kHost, "");
  const net::LinkId aw = topo.add_duplex_link(a, w, gbps(10), 0.001).first;
  const net::LinkId we = topo.add_duplex_link(w, e, gbps(10), 0.010).first;
  const net::LinkId eb = topo.add_duplex_link(e, b, gbps(10), 0.001).first;
  const shard::DomainPartition part(topo);
  const std::uint32_t west = part.domain_index("west");
  const std::uint32_t east = part.domain_index("east");
  EXPECT_EQ(part.domain_of(a), west);
  EXPECT_EQ(part.domain_of(b), east);

  const auto legs = part.cut_path({aw, we, eb});
  ASSERT_EQ(legs.size(), 2u);
  EXPECT_EQ(legs[0].domain, west);
  ASSERT_NE(legs[0].exit_gateway, shard::DomainPartition::kNoGateway);
  const auto& gw = part.gateways()[legs[0].exit_gateway];
  EXPECT_EQ(gw.global_link, we);
  EXPECT_EQ(as_path(legs[0].local_path),
            (net::Path{part.local_link(aw), gw.local_egress}));
  EXPECT_EQ(legs[0].local_src, part.local_node(a));
  EXPECT_EQ(legs[1].domain, east);
  EXPECT_EQ(legs[1].exit_gateway, shard::DomainPartition::kNoGateway);
  EXPECT_EQ(as_path(legs[1].local_path), net::Path{part.local_link(eb)});
  EXPECT_EQ(legs[1].local_src, part.local_node(e));
  EXPECT_EQ(legs[1].local_dst, part.local_node(b));
}

TEST(Partition, PathReenteringADomainSegmentsTwice) {
  // Legs are contiguous runs, not domain sets: west -> east -> west cuts
  // into three legs, the second west visit a fresh leg of its own.
  net::Topology topo;
  const net::NodeId w1 = topo.add_node("w1", net::NodeKind::kRouter, "west");
  const net::NodeId e1 = topo.add_node("e1", net::NodeKind::kRouter, "east");
  const net::NodeId w2 = topo.add_node("w2", net::NodeKind::kRouter, "west");
  const net::NodeId w3 = topo.add_node("w3", net::NodeKind::kRouter, "west");
  const net::LinkId we = topo.add_duplex_link(w1, e1, gbps(10), 0.010).first;
  const net::LinkId ew = topo.add_duplex_link(e1, w2, gbps(10), 0.010).first;
  const net::LinkId ww = topo.add_duplex_link(w2, w3, gbps(10), 0.005).first;
  const shard::DomainPartition part(topo);
  const std::uint32_t west = part.domain_index("west");

  const auto legs = part.cut_path({we, ew, ww});
  ASSERT_EQ(legs.size(), 3u);
  EXPECT_EQ(legs[0].domain, west);
  EXPECT_EQ(legs[1].domain, part.domain_index("east"));
  EXPECT_EQ(legs[2].domain, west);
  EXPECT_EQ(part.gateways()[legs[0].exit_gateway].global_link, we);
  EXPECT_EQ(part.gateways()[legs[1].exit_gateway].global_link, ew);
  EXPECT_EQ(legs[2].exit_gateway, shard::DomainPartition::kNoGateway);
  EXPECT_EQ(as_path(legs[2].local_path), net::Path{part.local_link(ww)});
  EXPECT_EQ(legs[2].local_src, part.local_node(w2));
}

TEST(ShardedSimulation, CompletesAllTransfersAndConservesBytes) {
  const auto s = workload::build_federation(small_config(), 11);
  shard::ShardedSimulation sharded(s, 2);
  sharded.run();
  EXPECT_TRUE(sharded.violations().empty())
      << (sharded.violations().empty() ? "" : sharded.violations().front());
  const auto& st = sharded.stats();
  EXPECT_EQ(st.transfers_completed, s.total_transfers());
  EXPECT_EQ(st.bytes_delivered, st.bytes_planned);
  EXPECT_GT(st.messages, 0u);          // remote traffic crossed shards
  EXPECT_GT(st.chains_requested, 0u);  // vc_fraction drew some chains
  EXPECT_GT(st.chains_granted, 0u);    // and some booked end to end
  EXPECT_EQ(st.chains_granted + st.chains_rejected, st.chains_requested);
  EXPECT_GT(st.barriers, 0u);
  EXPECT_GT(st.end_time, 0.0);
}

TEST(ShardedSimulation, DigestIsByteIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {3ULL, 17ULL}) {
    const auto s = workload::build_federation(small_config(), seed);
    // Lane counts that do and do not divide the 5 worlds, up to one lane
    // per world, and more lanes than most hosts have cores.
    const unsigned lane_counts[] = {1u, 2u, 3u, 4u, 5u, 8u};
    std::vector<std::string> digests;
    for (const unsigned shards : lane_counts) {
      shard::ShardedSimulation sharded(s, shards);
      sharded.run();
      EXPECT_TRUE(sharded.violations().empty());
      digests.push_back(sharded.digest());
    }
    for (std::size_t i = 1; i < digests.size(); ++i) {
      EXPECT_EQ(digests[0], digests[i]) << "seed " << seed << ", " << lane_counts[i]
                                        << " shards";
    }
    // The digest is substantive, not vacuous.
    EXPECT_NE(digests[0].find("hash="), std::string::npos);
    EXPECT_EQ(digests[0].find("violations=0"), digests[0].size() - 12);
  }
}

TEST(ShardedSimulation, NeverRunsMoreLanesThanWorlds) {
  // Five domains: 64 lanes asked for, five used, same digest as serial.
  const auto s = workload::build_federation(small_config(), 3);
  shard::ShardedSimulation serial(s, 1);
  serial.run();
  shard::ShardedSimulation wide(s, 64);
  EXPECT_EQ(wide.partition().domain_count(), 5u);
  EXPECT_EQ(wide.shards(), 5u);
  wide.run();
  EXPECT_TRUE(wide.violations().empty());
  EXPECT_EQ(wide.digest(), serial.digest());
  EXPECT_EQ(serial.shards(), 1u);
}

/// Throws from the Nth event it sees: a world that fails mid-epoch.
class ThrowingSink : public obs::TraceSink {
 public:
  explicit ThrowingSink(std::size_t n) : left_(n) {}
  void emit(const obs::TraceEvent&) override {
    if (--left_ == 0) throw std::runtime_error("world failed mid-epoch");
  }

 private:
  std::size_t left_;
};

TEST(ShardedSimulation, WorldThatThrowsMidEpochPropagatesOutOfRun) {
  // The failure leaves run() on the caller whichever lane ran the world,
  // and the simulation, its pool included, is then torn down without
  // hanging.
  const auto s = workload::build_federation(small_config(), 11);
  for (const unsigned shards : {1u, 4u}) {
    for (const std::uint32_t domain : {0u, 3u}) {
      ThrowingSink sink(25);
      shard::ShardedSimulation sharded(s, shards);
      sharded.set_trace_sink(domain, &sink);
      EXPECT_THROW(sharded.run(), std::runtime_error)
          << "domain " << domain << ", " << shards << " shards";
    }
  }
}

TEST(ShardedSimulation, DownstreamRejectCancelsUpstreamSegments) {
  // One host per site with one transfer at a time, and every file asks
  // for a chain at 3 Gbit/s. Half of a 10 Gbit/s access link is
  // reservable, so it holds one chain: an origin uplink only ever holds
  // its own, while two origins can aim at one destination downlink.
  // Every rejection therefore comes from the last domain, and walks back
  // cancelling the segments booked upstream before the origin starts
  // best effort. The pinned digests catch an upstream segment left
  // booked until the transfer ends: it moves the event and barrier
  // counts, not the chain counts.
  auto config = small_config();
  config.sites = 3;
  config.hosts_per_site = 1;
  config.host_concurrency = 1;
  config.vc_fraction = 1.0;
  config.chain_rate = 3e9;
  const std::pair<std::uint64_t, const char*> pinned[] = {
      {3,
       "seed=3 domains=3 transfers=120/120 segments=240 msgs=480 hash=0b3ddb0444eae337 "
       "chains=96/24/120 events=1272 barriers=778 bytes=1052929684 end=33.707497 "
       "violations=0"},
      {17,
       "seed=17 domains=3 transfers=120/120 segments=240 msgs=480 hash=56bb49504a906419 "
       "chains=103/17/120 events=1286 barriers=836 bytes=1086032052 end=33.805910 "
       "violations=0"},
  };
  for (const auto& [seed, expected] : pinned) {
    const auto s = workload::build_federation(config, seed);
    for (const unsigned shards : {1u, 4u}) {
      shard::ShardedSimulation sharded(s, shards);
      sharded.run();
      EXPECT_TRUE(sharded.violations().empty())
          << (sharded.violations().empty() ? "" : sharded.violations().front());
      const auto& st = sharded.stats();
      EXPECT_EQ(st.chains_requested, s.total_transfers());
      EXPECT_GT(st.chains_rejected, 0u);
      EXPECT_GT(st.chains_granted, 0u);
      EXPECT_EQ(sharded.digest(), expected) << "seed " << seed << ", shards " << shards;
    }
  }
}

TEST(ShardedSimulation, DistinctSeedsProduceDistinctDigests) {
  const auto a = workload::build_federation(small_config(), 5);
  const auto b = workload::build_federation(small_config(), 6);
  shard::ShardedSimulation sa(a, 2);
  shard::ShardedSimulation sb(b, 2);
  sa.run();
  sb.run();
  EXPECT_NE(sa.digest(), sb.digest());
}

// --- Inter-domain circuit chaining -----------------------------------------
//
// The partition cuts a path into one leg per domain run, and the
// federation books a VC chain hop by hop, one segment per leg, each in
// its own domain's IDC. A chain that a downstream domain rejects walks
// back one gateway at a time, rolling back every upstream segment, and
// the origin then sends the file best effort. The chain tests read each
// domain's own trace.

TEST(Interdomain, SegmentsPathByDomain) {
  // host a - [west: w1, w2] - [east: e1, e2] - host b.
  net::Topology topo;
  const net::NodeId a = topo.add_node("a", net::NodeKind::kHost, "west");
  const net::NodeId w1 = topo.add_node("w1", net::NodeKind::kRouter, "west");
  const net::NodeId w2 = topo.add_node("w2", net::NodeKind::kRouter, "west");
  const net::NodeId e1 = topo.add_node("e1", net::NodeKind::kRouter, "east");
  const net::NodeId e2 = topo.add_node("e2", net::NodeKind::kRouter, "east");
  const net::NodeId b = topo.add_node("b", net::NodeKind::kHost, "east");
  topo.add_duplex_link(a, w1, gbps(10), 0.001);
  topo.add_duplex_link(w1, w2, gbps(10), 0.005);
  const net::LinkId we = topo.add_duplex_link(w2, e1, gbps(10), 0.010).first;
  topo.add_duplex_link(e1, e2, gbps(10), 0.005);
  topo.add_duplex_link(e2, b, gbps(10), 0.001);
  const shard::DomainPartition part(topo);
  const auto path = net::shortest_path(topo, a, b);
  ASSERT_TRUE(path.has_value());

  const auto legs = part.cut_path(*path);
  ASSERT_EQ(legs.size(), 2u);
  EXPECT_EQ(legs[0].domain, part.domain_index("west"));
  EXPECT_EQ(legs[1].domain, part.domain_index("east"));
  EXPECT_EQ(part.gateways()[legs[0].exit_gateway].global_link, we);
  // The legs partition the path: the inter-domain link rides in the west
  // leg as its egress proxy link.
  EXPECT_EQ(legs[0].local_path.size(), 3u);
  EXPECT_EQ(legs[0].local_path.size() + legs[1].local_path.size(), path->size());
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const auto leg = legs[i];
    EXPECT_TRUE(part.domain(leg.domain)
                    .topo.is_valid_path(leg.local_path, leg.local_src, leg.local_dst));
  }
  EXPECT_EQ(legs[0].local_src, part.local_node(a));
  EXPECT_EQ(legs[1].local_dst, part.local_node(b));
}

TEST(Interdomain, SingleDomainPathIsOneSegment) {
  // Both hosts and every router in one domain: one world, no gateways,
  // and the whole path is one leg.
  net::Topology topo;
  const net::NodeId a = topo.add_node("a", net::NodeKind::kHost, "solo");
  const net::NodeId r1 = topo.add_node("r1", net::NodeKind::kRouter, "solo");
  const net::NodeId r2 = topo.add_node("r2", net::NodeKind::kRouter, "solo");
  const net::NodeId b = topo.add_node("b", net::NodeKind::kHost, "solo");
  topo.add_duplex_link(a, r1, gbps(10), 0.001);
  topo.add_duplex_link(r1, r2, gbps(10), 0.005);
  topo.add_duplex_link(r2, b, gbps(10), 0.001);
  const shard::DomainPartition part(topo);
  ASSERT_EQ(part.domain_count(), 1u);
  EXPECT_TRUE(part.gateways().empty());
  EXPECT_EQ(part.lookahead(), 0.0);
  const auto path = net::shortest_path(topo, a, b);
  ASSERT_TRUE(path.has_value());

  const auto legs = part.cut_path(*path);
  ASSERT_EQ(legs.size(), 1u);
  EXPECT_EQ(legs[0].domain, part.domain_index("solo"));
  EXPECT_EQ(legs[0].exit_gateway, shard::DomainPartition::kNoGateway);
  EXPECT_EQ(legs[0].local_path.size(), path->size());
  EXPECT_EQ(legs[0].local_src, part.local_node(a));
  EXPECT_EQ(legs[0].local_dst, part.local_node(b));
}

/// Runs a federation with one trace ring per domain.
struct TracedFederation {
  std::vector<std::unique_ptr<obs::RingBufferTraceSink>> rings;  // outlive sim
  shard::ShardedSimulation sim;

  TracedFederation(const workload::FederationScenario& s, unsigned shards)
      : sim(s, shards) {
    for (std::uint32_t d = 0; d < sim.partition().domain_count(); ++d) {
      rings.push_back(std::make_unique<obs::RingBufferTraceSink>(1u << 14));
      sim.set_trace_sink(d, rings.back().get());
    }
    sim.run();
  }

  /// Domain `d`'s whole trace, in emission order.
  std::vector<obs::TraceEvent> events(std::uint32_t d) const {
    EXPECT_EQ(rings[d]->total_emitted(), rings[d]->events().size()) << "ring overflowed";
    return rings[d]->events();
  }
};

std::size_t count_of(const std::vector<obs::TraceEvent>& events, obs::TraceEventType type) {
  std::size_t n = 0;
  for (const auto& ev : events) n += ev.type == type ? 1 : 0;
  return n;
}

/// Index of the first event of `type`, or events.size() if none.
std::size_t first_of(const std::vector<obs::TraceEvent>& events, obs::TraceEventType type) {
  std::size_t i = 0;
  while (i < events.size() && events[i].type != type) ++i;
  return i;
}

/// Index of the first circuit teardown: a segment is cancelled before it
/// activates and released after, or events.size() if none.
std::size_t first_teardown(const std::vector<obs::TraceEvent>& events) {
  return std::min(first_of(events, obs::TraceEventType::kVcCancelled),
                  first_of(events, obs::TraceEventType::kVcReleased));
}

/// One host per site; the users on site000 and site001 each send one file
/// with a 3 Gbit/s chain. Half of a 10 Gbit/s access link is reservable,
/// so a host downlink holds one chain: two files bound for one host
/// contend for its last segment.
workload::FederationConfig chain_contention_config(std::size_t sites) {
  workload::FederationConfig config;
  config.sites = sites;
  config.hosts_per_site = 1;
  config.users = 2;
  config.transfers_per_user = 1;
  config.file_size = 64ULL << 20;
  config.arrival_horizon = 0.01;
  config.remote_fraction = 1.0;
  config.vc_fraction = 1.0;
  config.host_concurrency = 1;
  config.chain_rate = 3e9;
  return config;
}

TEST(Interdomain, BooksBothDomains) {
  // Two sites, every file remote, and every chain fits: each chain books
  // one segment in its origin's IDC and one in its destination's, and
  // every segment is torn down by the end.
  auto config = small_config();
  config.sites = 2;
  config.remote_fraction = 1.0;
  config.vc_fraction = 1.0;
  config.chain_rate = 1e9;
  const auto s = workload::build_federation(config, 5);
  const TracedFederation run(s, 2);
  EXPECT_TRUE(run.sim.violations().empty())
      << (run.sim.violations().empty() ? "" : run.sim.violations().front());
  const auto& st = run.sim.stats();
  EXPECT_EQ(st.chains_requested, s.total_transfers());
  EXPECT_EQ(st.chains_granted, s.total_transfers());
  EXPECT_EQ(st.segments_completed, 2 * s.total_transfers());
  for (std::uint32_t d = 0; d < 2; ++d) {
    const auto events = run.events(d);
    EXPECT_EQ(count_of(events, obs::TraceEventType::kVcGranted), s.total_transfers())
        << "domain " << d;
    EXPECT_EQ(count_of(events, obs::TraceEventType::kVcRejected), 0u) << "domain " << d;
    EXPECT_EQ(count_of(events, obs::TraceEventType::kVcCancelled) +
                  count_of(events, obs::TraceEventType::kVcReleased),
              s.total_transfers())
        << "domain " << d;
  }
  // Tracing observes the run without changing it.
  shard::ShardedSimulation untraced(s, 1);
  untraced.run();
  EXPECT_EQ(run.sim.digest(), untraced.digest());
}

TEST(Interdomain, RollsBackOnDownstreamRejection) {
  // Both files go to site002's one host. The booking that reaches
  // site002 first wins its downlink; the other is rejected there, and
  // its origin tears its own segment down before it sends the file best
  // effort. Every expected time comes from the arrival times and the
  // gateway delays.
  const auto s = workload::build_federation(chain_contention_config(3), 4);
  const TracedFederation run(s, 1);
  const auto& part = run.sim.partition();
  const auto& gateways = part.gateways();
  Seconds booked_at[2] = {0.0, 0.0};    // when each booking reaches site002
  Seconds reject_back[2] = {0.0, 0.0};  // site002 -> origin gateway delay
  for (std::uint64_t u = 0; u < 2; ++u) {
    const auto t = s.transfer_params(u, 0);
    ASSERT_EQ(t.dst_site, 2u);
    const auto legs = part.cut_path(route_of(s, u, t));
    ASSERT_EQ(legs.size(), 2u);
    const auto& gw = gateways[legs[0].exit_gateway];
    booked_at[u] = s.arrival_time(u) + gw.delay;
    reject_back[u] = gateways[gw.reverse].delay;
  }
  ASSERT_NE(booked_at[0], booked_at[1]);
  const std::uint64_t loser = booked_at[0] < booked_at[1] ? 1 : 0;

  EXPECT_TRUE(run.sim.violations().empty())
      << (run.sim.violations().empty() ? "" : run.sim.violations().front());
  const auto& st = run.sim.stats();
  EXPECT_EQ(st.chains_granted, 1u);
  EXPECT_EQ(st.chains_rejected, 1u);
  EXPECT_EQ(st.transfers_completed, 2u);
  EXPECT_EQ(st.bytes_delivered, st.bytes_planned);

  const auto dst = run.events(part.domain_of(s.sites[2].border));
  ASSERT_EQ(count_of(dst, obs::TraceEventType::kVcRejected), 1u);
  const auto& rejected = dst[first_of(dst, obs::TraceEventType::kVcRejected)];
  EXPECT_DOUBLE_EQ(rejected.time, booked_at[loser]);
  EXPECT_EQ(rejected.aux,
            static_cast<std::uint64_t>(vc::RejectReason::kInsufficientBandwidth));

  for (std::uint64_t u = 0; u < 2; ++u) {
    const auto events = run.events(part.domain_of(s.sites[s.origin_site(u)].border));
    const std::size_t teardown = first_teardown(events);
    const std::size_t sent = first_of(events, obs::TraceEventType::kTransferSubmitted);
    ASSERT_LT(teardown, events.size()) << "user " << u;
    ASSERT_LT(sent, events.size()) << "user " << u;
    if (u == loser) {
      // Rolled back as the rejection arrives, then the file goes out
      // best effort at the same instant.
      EXPECT_LT(teardown, sent);
      EXPECT_DOUBLE_EQ(events[teardown].time, booked_at[u] + reject_back[u]);
      EXPECT_DOUBLE_EQ(events[sent].time, events[teardown].time);
    } else {
      EXPECT_LT(sent, teardown);  // the winner's segment carries its file
    }
  }
}

TEST(Interdomain, EmitsRollbackTraceEventsInReverseOrder) {
  // Four sites in a ring. site000's file to site002 crosses site003;
  // site001's goes direct and wins site002's downlink. The rejection
  // walks back one gateway at a time: site003 tears down its transit
  // segment first, then site000 its origin segment.
  const auto s = workload::build_federation(chain_contention_config(4), 40);
  const TracedFederation run(s, 1);
  const auto& part = run.sim.partition();
  const auto& gateways = part.gateways();
  ASSERT_EQ(s.transfer_params(1, 0).dst_site, 2u);
  const auto t = s.transfer_params(0, 0);
  ASSERT_EQ(t.dst_site, 2u);
  const auto legs = part.cut_path(route_of(s, 0, t));
  ASSERT_EQ(legs.size(), 3u);
  const std::uint32_t origin = part.domain_of(s.sites[0].border);
  const std::uint32_t transit = part.domain_of(s.sites[3].border);
  ASSERT_EQ(legs[0].domain, origin);
  ASSERT_EQ(legs[1].domain, transit);
  const auto& out = gateways[legs[0].exit_gateway];
  const auto& on = gateways[legs[1].exit_gateway];
  const Seconds rejected_at = s.arrival_time(0) + out.delay + on.delay;
  const Seconds transit_at = rejected_at + gateways[on.reverse].delay;
  const Seconds origin_at = transit_at + gateways[out.reverse].delay;

  EXPECT_TRUE(run.sim.violations().empty())
      << (run.sim.violations().empty() ? "" : run.sim.violations().front());
  EXPECT_EQ(run.sim.stats().chains_granted, 1u);
  EXPECT_EQ(run.sim.stats().chains_rejected, 1u);
  const auto dst = run.events(legs[2].domain);
  ASSERT_EQ(count_of(dst, obs::TraceEventType::kVcRejected), 1u);
  EXPECT_DOUBLE_EQ(dst[first_of(dst, obs::TraceEventType::kVcRejected)].time, rejected_at);

  // Each upstream domain carries only this chain, so its first teardown
  // is the rollback.
  const auto via = run.events(transit);
  const auto from = run.events(origin);
  ASSERT_LT(first_teardown(via), via.size());
  ASSERT_LT(first_teardown(from), from.size());
  EXPECT_DOUBLE_EQ(via[first_teardown(via)].time, transit_at);
  EXPECT_DOUBLE_EQ(from[first_teardown(from)].time, origin_at);
  EXPECT_LT(transit_at, origin_at);
  EXPECT_LT(first_teardown(from), first_of(from, obs::TraceEventType::kTransferSubmitted));
}

}  // namespace
}  // namespace gridvc
