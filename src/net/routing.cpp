#include "net/routing.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace gridvc::net {

namespace {

constexpr NodeId kEveryNode = std::numeric_limits<NodeId>::max();

// Dijkstra over link delay from src until dst settles, or until every
// reachable node has when dst is kEveryNode. Returns whether dst is
// reachable; ws.via then holds the predecessor links of every settled
// node.
bool search(const Topology& topo, NodeId src, NodeId dst, const LinkFilter& usable,
            RouteWorkspace& ws) {
  GRIDVC_REQUIRE(src < topo.node_count() && (dst < topo.node_count() || dst == kEveryNode),
                 "routing endpoint out of range");
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<double>& dist = ws.dist;
  std::vector<LinkId>& via = ws.via;
  dist.assign(topo.node_count(), kInf);
  via.assign(topo.node_count(), kNoLink);
  // A min-heap on (distance, node) kept with the <algorithm> heap
  // functions over a reused buffer (what std::priority_queue with
  // std::greater does, minus the allocation).
  using Entry = std::pair<double, NodeId>;
  std::vector<Entry>& heap = ws.heap;
  heap.clear();
  const auto push = [&heap](double d, NodeId n) {
    heap.emplace_back(d, n);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };

  dist[src] = 0.0;
  push(0.0, src);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > dist[u]) continue;  // stale entry
    if (u == dst) break;
    for (LinkId lid : topo.outgoing(u)) {
      if (usable && !usable(lid)) continue;
      const Link& l = topo.link(lid);
      // Delay plus an infinitesimal hop cost so zero-delay meshes still
      // prefer fewer hops.
      const double nd = d + (l.delay + 1e-9);
      const NodeId v = l.to;
      // Strict improvement, or equal cost with a smaller link id: the tie
      // break makes path selection deterministic across platforms.
      if (nd < dist[v] || (nd == dist[v] && via[v] != kNoLink && lid < via[v])) {
        dist[v] = nd;
        via[v] = lid;
        push(nd, v);
      }
    }
  }

  return dst == kEveryNode || src == dst || via[dst] != kNoLink;
}

}  // namespace

std::optional<Path> shortest_path(const Topology& topo, NodeId src, NodeId dst,
                                  const LinkFilter& usable) {
  RouteWorkspace ws;
  return shortest_path(topo, src, dst, usable, ws);
}

std::optional<Path> shortest_path(const Topology& topo, NodeId src, NodeId dst,
                                  const LinkFilter& usable, RouteWorkspace& ws) {
  if (!search(topo, src, dst, usable, ws)) return std::nullopt;
  Path path;
  tree_path(topo, ws.via, src, dst, path);
  return path;
}

void shortest_path_tree(const Topology& topo, NodeId src, const LinkFilter& usable,
                        RouteWorkspace& ws) {
  search(topo, src, kEveryNode, usable, ws);
}

void tree_path(const Topology& topo, const std::vector<LinkId>& via, NodeId src, NodeId dst,
               Path& out) {
  std::size_t hops = 0;
  for (NodeId n = dst; n != src; n = topo.link(via[n]).from) ++hops;
  out.resize(hops);
  for (NodeId n = dst; n != src; n = topo.link(via[n]).from) out[--hops] = via[n];
}

bool reachable(const Topology& topo, NodeId src, NodeId dst, RouteWorkspace& ws) {
  return search(topo, src, dst, nullptr, ws);
}

}  // namespace gridvc::net
