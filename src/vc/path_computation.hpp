// Constrained path computation for virtual circuits.
//
// "there is an opportunity for a management software system such as
// OSCARS to explicitly select a path for the virtual circuit based on
// current network conditions, policies, and service level agreements"
// (§I). The path computation engine prunes links that (a) lack calendar
// headroom for the requested rate over the requested window or (b) are
// administratively excluded, then runs least-delay Dijkstra over the
// survivors (ties go to the smaller link id).
//
// Most requests fit on the policy-filtered least-delay path itself, so
// that path is checked against the calendar first and the constrained
// search runs only when a link on it lacks headroom. Both give the same
// path: if every link of the least-delay path P has headroom, the filter
// removes only other links, so the distances along P stay put and at
// each node of P the smallest-id tight in-link is still P's own (DESIGN
// §10 spells this out).
//
// The least-delay paths are memoised as trees, not pairs: the first
// request from a source runs one Dijkstra to the end
// (net::shortest_path_tree) and keeps each node's predecessor link, and
// every later request from that source reads its path off the tree. A
// domain has a few dozen sources and hundreds of endpoint pairs, so one
// search per source serves every pair, and a tree is node_count link ids.
#pragma once

#include <functional>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "vc/bandwidth_calendar.hpp"

namespace gridvc::vc {

/// Administrative policy hook: return false to forbid a link for circuits.
using LinkPolicy = std::function<bool(net::LinkId)>;

class PathComputer {
 public:
  /// `policy` must answer the same for a link until the next
  /// invalidate(): its trees are memoised.
  PathComputer(const net::Topology& topo, const BandwidthCalendar& calendar,
               LinkPolicy policy = nullptr);

  /// Least-delay path from src to dst on which `rate` fits over
  /// [start, end), written into `out` (reusing its capacity). Returns
  /// false, leaving `out` unspecified, when no such path exists.
  bool compute(net::NodeId src, net::NodeId dst, BitsPerSecond rate, Seconds start,
               Seconds end, net::Path& out);

  /// Least-delay path from src to dst over the links the policy allows,
  /// ignoring the calendar: net::shortest_path(topo, src, dst, policy),
  /// read off src's memoised tree into `out`. Returns false, leaving
  /// `out` untouched, when dst is unreachable.
  bool shortest(net::NodeId src, net::NodeId dst, net::Path& out);

  /// Whether dst can be reached from src at all, ignoring the calendar
  /// and the policy: net::reachable on this computer's search buffers.
  bool reachable(net::NodeId src, net::NodeId dst) {
    return net::reachable(topo_, src, dst, ws_);
  }

  /// Forget every memoised tree; call whenever the policy's answer for
  /// any link changes. The trees keep their storage for the rebuild.
  void invalidate() {
    for (std::vector<net::LinkId>& tree : trees_) tree.clear();
  }

 private:
  /// src's least-delay tree over the policy's links, built on the first
  /// request from src: entry n is the last link of n's path (net::kNoLink
  /// for src and for unreachable nodes).
  const std::vector<net::LinkId>& tree(net::NodeId src);

  const net::Topology& topo_;
  const BandwidthCalendar& calendar_;
  LinkPolicy policy_;
  /// Least-delay trees by source; an empty one is not built yet.
  std::vector<std::vector<net::LinkId>> trees_;
  /// Search buffers shared by every search this computer runs.
  net::RouteWorkspace ws_;
};

}  // namespace gridvc::vc
