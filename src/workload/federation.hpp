// Multi-domain federation scenario: the 20+ site topology and the
// million-user workload the sharded simulation runs.
//
// Every site is one administrative domain (tag "siteN") modeled after
// the paper's DOE sites: a cluster of DTN hosts behind an edge router,
// the edge router behind a border router, borders stitched into a WAN
// ring with cross-chords. Inter-site link delays are drawn per link from
// the seed, so the conservative lookahead (min inter-domain delay) is a
// property of the generated topology, not a constant.
//
// The workload is procedural: user u's origin host is u mod hosts, the
// arrival time and every per-file parameter come from counter-based
// stream RNGs keyed on (seed, user, file) — nothing is pre-materialized
// per transfer, so a 10M-transfer plan costs no memory and every world
// regenerates exactly the same plan regardless of shard count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace gridvc::workload {

struct FederationConfig {
  std::size_t sites = 21;          ///< administrative domains (>= 2)
  std::size_t hosts_per_site = 4;  ///< DTN hosts behind each edge router
  std::uint64_t users = 2000;      ///< virtual user sessions
  std::uint32_t transfers_per_user = 2;
  Bytes file_size = 256ULL << 20;  ///< median file size (256 MiB)
  double file_size_spread = 0.35;  ///< lognormal sigma of sizes
  Seconds arrival_horizon = 600.0; ///< users arrive uniformly in [0, horizon)
  Seconds think_time = 5.0;        ///< pause between a user's files
  double remote_fraction = 0.4;    ///< files bound for another site
  double vc_fraction = 0.25;       ///< files that request a VC chain first
  int streams = 4;                 ///< parallel TCP streams per transfer
  int host_concurrency = 2;        ///< simultaneous transfers per host
  BitsPerSecond host_nic = 10e9;
  BitsPerSecond relay_nic = 100e9;       ///< border relay DTN cluster
  int relay_pool = 8;
  BitsPerSecond access_capacity = 10e9;  ///< host <-> edge
  BitsPerSecond backbone_capacity = 100e9;  ///< edge <-> border
  BitsPerSecond interdomain_capacity = 40e9;
  Seconds access_delay = 0.0005;
  Seconds backbone_delay = 0.002;
  Seconds interdomain_delay_min = 0.010;  ///< == the lookahead floor
  Seconds interdomain_delay_max = 0.030;
  std::size_t chord_stride = 4;    ///< every Nth border gets a cross-chord
  BitsPerSecond chain_rate = 2e9;  ///< guarantee a chain books per segment
  Seconds chain_window = 120.0;    ///< circuit hold booked per segment
};

struct FederationSite {
  net::NodeId border = 0;
  net::NodeId edge = 0;
  std::vector<net::NodeId> hosts;
  std::vector<net::LinkId> host_up;    ///< host -> edge, by host ordinal
  std::vector<net::LinkId> host_down;  ///< edge -> host
  net::LinkId edge_up = 0;             ///< edge -> border
  net::LinkId edge_down = 0;           ///< border -> edge
};

/// One per-file decision, regenerated on demand (never stored).
struct FederationTransfer {
  std::uint32_t dst_site = 0;
  std::uint32_t dst_host = 0;  ///< ordinal within dst_site
  Bytes size = 0;
  bool wants_vc = false;
};

struct FederationScenario {
  FederationConfig config;
  std::uint64_t seed = 0;
  net::Topology topo;
  std::vector<FederationSite> sites;
  /// Border-to-border global link path between every ordered site pair
  /// (empty path on the diagonal). Shared read-only by all worlds.
  std::vector<std::vector<net::Path>> site_route;
  /// Global host ordinal (site * hosts_per_site + host ordinal) by global
  /// node id, kNotAHost for routers. Users u with u mod total hosts equal
  /// to a host's ordinal start at that host.
  std::vector<std::uint32_t> host_ordinal;
  static constexpr std::uint32_t kNotAHost = 0xffffffffu;

  std::uint64_t total_transfers() const {
    return config.users * config.transfers_per_user;
  }

  /// Origin of user `u`: (site, host ordinal). Pure function.
  std::uint32_t origin_site(std::uint64_t u) const;
  std::uint32_t origin_host(std::uint64_t u) const;

  /// Arrival time of user `u`: uniform in [0, horizon). Pure function of
  /// (seed, u).
  Seconds arrival_time(std::uint64_t u) const;

  /// Parameters of user `u`'s file number `k`. Pure function of
  /// (seed, u, k); guaranteed dst != origin host.
  FederationTransfer transfer_params(std::uint64_t u, std::uint32_t k) const;

  /// Full host-to-host global path for a (user, file) pair, written into
  /// `path` (cleared first, so a reused buffer costs no allocation).
  void route(std::uint64_t u, const FederationTransfer& t, net::Path& path) const;
};

/// Build the topology and route table. Deterministic in (config, seed).
FederationScenario build_federation(const FederationConfig& config, std::uint64_t seed);

}  // namespace gridvc::workload
