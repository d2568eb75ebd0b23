#include "net/topology.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gridvc::net {

NodeId Topology::add_node(std::string name, NodeKind kind, std::string domain) {
  GRIDVC_REQUIRE(!name.empty(), "node name must not be empty");
  const auto id = static_cast<NodeId>(nodes_.size());
  const bool fresh = node_by_name_.emplace(name, id).second;
  GRIDVC_REQUIRE(fresh, "duplicate node name: " + name);
  nodes_.push_back(Node{std::move(name), kind, std::move(domain)});
  adjacency_.emplace_back();
  return id;
}

LinkId Topology::add_link(NodeId from, NodeId to, BitsPerSecond capacity, Seconds delay) {
  GRIDVC_REQUIRE(from < nodes_.size() && to < nodes_.size(), "link endpoint out of range");
  GRIDVC_REQUIRE(from != to, "self-loop links are not allowed");
  GRIDVC_REQUIRE(capacity > 0.0, "link capacity must be positive");
  GRIDVC_REQUIRE(delay >= 0.0, "link delay must be non-negative");
  links_.push_back(Link{from, to, capacity, delay});
  const LinkId id = static_cast<LinkId>(links_.size() - 1);
  adjacency_[from].push_back(id);
  return id;
}

std::pair<LinkId, LinkId> Topology::add_duplex_link(NodeId a, NodeId b,
                                                    BitsPerSecond capacity, Seconds delay) {
  const LinkId fwd = add_link(a, b, capacity, delay);
  const LinkId rev = add_link(b, a, capacity, delay);
  return {fwd, rev};
}

const Node& Topology::node(NodeId id) const {
  GRIDVC_REQUIRE(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

const Link& Topology::link(LinkId id) const {
  GRIDVC_REQUIRE(id < links_.size(), "link id out of range");
  return links_[id];
}

std::optional<NodeId> Topology::find_node(const std::string& name) const {
  const auto it = node_by_name_.find(name);
  if (it == node_by_name_.end()) return std::nullopt;
  return it->second;
}

const std::vector<LinkId>& Topology::outgoing(NodeId from) const {
  GRIDVC_REQUIRE(from < adjacency_.size(), "node id out of range");
  return adjacency_[from];
}

Seconds Topology::path_delay(std::span<const LinkId> path) const {
  Seconds total = 0.0;
  for (LinkId id : path) total += link(id).delay;
  return total;
}

BitsPerSecond Topology::path_capacity(const Path& path) const {
  GRIDVC_REQUIRE(!path.empty(), "path_capacity of empty path");
  BitsPerSecond cap = link(path.front()).capacity;
  for (LinkId id : path) cap = std::min(cap, link(id).capacity);
  return cap;
}

bool Topology::is_valid_path(std::span<const LinkId> path, NodeId src, NodeId dst) const {
  if (path.empty()) return src == dst;
  if (link(path.front()).from != src) return false;
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (link(path[i]).from != link(path[i - 1]).to) return false;
  }
  return link(path.back()).to == dst;
}

}  // namespace gridvc::net
