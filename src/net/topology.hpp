// WAN topology model.
//
// Nodes are sites (DTN hosts) and routers; links are *directed* with a
// capacity and propagation delay. A duplex physical link is two directed
// links, which is exactly how ESnet's SNMP data is organized (per-interface
// ingress/egress byte counts) — Tables X–XIII read egress interfaces on the
// transfer path, so the directed representation is load-bearing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace gridvc::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

/// What a node represents; routers carry SNMP-instrumented interfaces,
/// hosts originate/terminate flows.
enum class NodeKind : std::uint8_t { kHost, kRouter };

struct Node {
  std::string name;
  NodeKind kind = NodeKind::kRouter;
  /// Administrative domain (e.g. "esnet", "ncar"); the inter-domain VC
  /// controller partitions path computation by this tag.
  std::string domain;
};

struct Link {
  NodeId from = 0;
  NodeId to = 0;
  BitsPerSecond capacity = 0.0;
  Seconds delay = 0.0;  ///< one-way propagation delay
};

/// A loop-free directed path as an ordered list of link ids.
using Path = std::vector<LinkId>;

/// Immutable-after-build topology with name lookup.
class Topology {
 public:
  /// Add a node; names must be unique. Returns its id.
  NodeId add_node(std::string name, NodeKind kind, std::string domain = "");

  /// Add one directed link. Requires distinct existing endpoints and
  /// positive capacity. Returns its id.
  LinkId add_link(NodeId from, NodeId to, BitsPerSecond capacity, Seconds delay);

  /// Add both directions with identical parameters; returns {forward, reverse}.
  std::pair<LinkId, LinkId> add_duplex_link(NodeId a, NodeId b, BitsPerSecond capacity,
                                            Seconds delay);

  const Node& node(NodeId id) const;
  const Link& link(LinkId id) const;
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }

  /// Find a node id by name (hashed, O(1)).
  std::optional<NodeId> find_node(const std::string& name) const;

  /// Directed links leaving `from`.
  const std::vector<LinkId>& outgoing(NodeId from) const;

  /// Total one-way propagation delay along a path.
  Seconds path_delay(std::span<const LinkId> path) const;

  /// Smallest link capacity along a path (the bottleneck rate).
  BitsPerSecond path_capacity(const Path& path) const;

  /// Validate that `path` is a connected chain starting at `src` and ending
  /// at `dst`.
  bool is_valid_path(std::span<const LinkId> path, NodeId src, NodeId dst) const;

 private:
  std::vector<Node> nodes_;
  std::unordered_map<std::string, NodeId> node_by_name_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
};

}  // namespace gridvc::net
