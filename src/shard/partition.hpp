// Domain partition of a multi-domain topology.
//
// The sharded simulation (sharded_simulation.hpp) decomposes a federation
// by *administrative domain*: every domain becomes one logical world with
// its own Simulator/Network/Idc/servers, whatever `--shards` says — the
// shard count only widens the executor that runs the worlds, never the
// decomposition itself, which is what makes digests byte-identical at any
// shard count. This header owns the static half of that story:
//
//   * assign every node to a domain (routers by their `domain` tag, hosts
//     by the domain of the router they attach to),
//   * build a per-domain local Topology holding the domain's nodes and
//     intra-domain links, plus one *proxy node* per outgoing inter-domain
//     link so the egress link's capacity and delay are contended inside
//     the owning domain's fluid model,
//   * enumerate the inter-domain links as Gateways (the shard channels:
//     a gateway's propagation delay lower-bounds cross-shard causality,
//     and the minimum over all gateways is the conservative lookahead),
//   * cut a global path into per-domain Legs that each world can hand to
//     its own transfer engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace gridvc::shard {

class Route;

class DomainPartition {
 public:
  /// One directed inter-domain link, lifted to a shard channel.
  struct Gateway {
    net::LinkId global_link = 0;
    std::uint32_t src_domain = 0;
    std::uint32_t dst_domain = 0;
    net::NodeId global_from = 0;  ///< border node in src_domain
    net::NodeId global_to = 0;    ///< entry node in dst_domain
    /// Egress link in src_domain's local topology: local(from) -> proxy,
    /// carrying the global link's capacity and delay.
    net::LinkId local_egress = 0;
    Seconds delay = 0.0;  ///< == messages' minimum channel latency
    /// Index of the gateway for the opposite direction (to -> from), or
    /// kNoGateway for a simplex inter-domain link. Completion relays and
    /// chain-booking replies travel backwards over this.
    std::uint32_t reverse = kNoGateway;
  };
  static constexpr std::uint32_t kNoGateway = 0xffffffffu;

  struct Domain {
    std::string name;
    net::Topology topo;  ///< nodes + intra-domain links + gateway proxies
    std::vector<net::NodeId> global_hosts;  ///< hosts owned, ascending
  };

  /// One per-domain run of a global path, read out of its Route.
  /// `local_path` ends with the crossed gateway's egress proxy link when
  /// `exit_gateway` is set, so a world simulates its share of the
  /// inter-domain hop's contention.
  struct Leg {
    std::uint32_t domain = 0;
    /// May be empty when the path ends on entry. Points into the Route,
    /// so it is valid while a copy of that Route is.
    std::span<const net::LinkId> local_path;
    net::NodeId local_src = 0;
    net::NodeId local_dst = 0;
    std::uint32_t exit_gateway = kNoGateway;  ///< crossed after this leg
  };

  /// Partition `global`. Domains are the distinct router tags in
  /// lexicographic order (an untagged single-domain topology degenerates
  /// to one world). Every host must attach to at least one router.
  explicit DomainPartition(const net::Topology& global);

  const net::Topology& global() const { return *global_; }
  std::size_t domain_count() const { return domains_.size(); }
  const Domain& domain(std::uint32_t d) const { return domains_[d]; }
  std::uint32_t domain_of(net::NodeId global_node) const {
    return node_domain_[global_node];
  }
  std::uint32_t domain_index(const std::string& name) const;
  /// Id of `global_node` in its domain's topology (proxies are local-only
  /// and have no global id).
  net::NodeId local_node(net::NodeId global_node) const { return local_node_[global_node]; }
  /// Id of the intra-domain link `global_link` in its domain's topology.
  net::LinkId local_link(net::LinkId global_link) const;

  const std::vector<Gateway>& gateways() const { return gateways_; }

  /// Smallest gateway delay: the conservative lookahead. Requires at
  /// least one gateway unless the topology is single-domain (then 0).
  Seconds lookahead() const { return lookahead_; }

  /// Cut a global path into per-domain legs, written into one new Route
  /// buffer. The path must be valid in the global topology; every
  /// inter-domain link crossed must be a gateway (by construction of the
  /// partition, all of them are).
  Route cut_path(const net::Path& path) const;

 private:
  const net::Topology* global_;
  std::vector<Domain> domains_;
  std::vector<std::uint32_t> node_domain_;  ///< by global node id
  std::vector<net::NodeId> local_node_;     ///< by global node id
  /// By global link id: the local link id of an intra-domain link, the
  /// index into gateways_ of an inter-domain one.
  std::vector<std::uint32_t> link_index_;
  std::unordered_map<std::string, std::uint32_t> domain_by_name_;
  std::vector<Gateway> gateways_;
  Seconds lookahead_ = 0.0;
};

/// A transfer's path, cut into legs once where the transfer starts and
/// read-only from then on. The origin record, the segment records and the
/// messages all hold copies of the same route, so worlds on other lanes
/// may read it (the barrier orders the hand-off); it is freed with its
/// transfer. The legs and their local link ids share one buffer, so a
/// route costs one allocation:
///
///   [leg count][leg 0]...[leg n-1][link ids of leg 0, leg 1, ...]
///
/// where each leg is kLegWords words: domain, local_src, local_dst,
/// exit_gateway, offset of its first link id, link count.
class Route {
 public:
  using Leg = DomainPartition::Leg;

  Route() = default;

  std::size_t size() const { return words_ ? words_[0] : 0; }
  Leg operator[](std::size_t i) const {
    const std::uint32_t* w = words_.get() + 1 + i * kLegWords;
    return Leg{w[0], std::span<const net::LinkId>(words_.get() + w[4], w[5]), w[1], w[2], w[3]};
  }
  Leg front() const { return (*this)[0]; }
  Leg back() const { return (*this)[size() - 1]; }

 private:
  friend class DomainPartition;
  static constexpr std::size_t kLegWords = 6;
  static_assert(sizeof(net::LinkId) == sizeof(std::uint32_t) &&
                sizeof(net::NodeId) == sizeof(std::uint32_t));

  explicit Route(std::shared_ptr<const std::uint32_t[]> words) : words_(std::move(words)) {}

  std::shared_ptr<const std::uint32_t[]> words_;
};

}  // namespace gridvc::shard
