// Shortest-path routing.
//
// IP-routed service: Dijkstra over propagation delay (BGP-style "you get
// what the IGP gives you"). The virtual-circuit path computation in
// src/vc/ builds on the same primitive but adds bandwidth-availability
// constraints and link pruning.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "net/topology.hpp"

namespace gridvc::net {

/// Optional per-link filter; return false to exclude a link from the search.
using LinkFilter = std::function<bool(LinkId)>;

/// The predecessor link of a search's source, and of every node the
/// search did not reach.
inline constexpr LinkId kNoLink = std::numeric_limits<LinkId>::max();

/// Search buffers reused across calls: a search through a workspace
/// allocates only the path it returns once the buffers have grown to the
/// topology's size.
struct RouteWorkspace {
  std::vector<double> dist;
  std::vector<LinkId> via;
  std::vector<std::pair<double, NodeId>> heap;
};

/// Least-delay path from src to dst, or nullopt if unreachable.
/// Ties are broken deterministically by smaller predecessor link id.
std::optional<Path> shortest_path(const Topology& topo, NodeId src, NodeId dst,
                                  const LinkFilter& usable = nullptr);
std::optional<Path> shortest_path(const Topology& topo, NodeId src, NodeId dst,
                                  const LinkFilter& usable, RouteWorkspace& ws);

/// The whole least-delay tree from src over the links `usable` allows:
/// shortest_path's search, run until every reachable node has settled
/// instead of stopping at one destination. On return ws.via[n] is the
/// last link of n's least-delay path (kNoLink for src and for the nodes
/// it cannot reach). Following via back from any dst gives exactly
/// shortest_path(topo, src, dst, usable): a node's predecessor is final
/// once it settles, since every node settled later is at least as far
/// and every link weighs more than zero, so no later relaxation reaches
/// it at equal cost.
void shortest_path_tree(const Topology& topo, NodeId src, const LinkFilter& usable,
                        RouteWorkspace& ws);

/// The path from src to dst that a least-delay tree's `via` records
/// (shortest_path_tree's ws.via), written into `out`; dst must be
/// reachable. The hops are counted first, so `out` is sized once and
/// filled from its end: no allocation while its capacity suffices.
void tree_path(const Topology& topo, const std::vector<LinkId>& via, NodeId src, NodeId dst,
               Path& out);

/// Whether dst can be reached from src over any links: shortest_path's
/// unfiltered search without building the path, so it allocates nothing
/// once the workspace has grown to the topology's size.
bool reachable(const Topology& topo, NodeId src, NodeId dst, RouteWorkspace& ws);

}  // namespace gridvc::net
