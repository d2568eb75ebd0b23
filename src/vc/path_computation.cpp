#include "vc/path_computation.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"

namespace gridvc::vc {

PathComputer::PathComputer(const net::Topology& topo, const BandwidthCalendar& calendar,
                           LinkPolicy policy)
    : topo_(topo), calendar_(calendar), policy_(std::move(policy)) {}

const std::vector<net::LinkId>& PathComputer::tree(net::NodeId src) {
  if (trees_.size() < topo_.node_count()) trees_.resize(topo_.node_count());
  std::vector<net::LinkId>& via = trees_[src];
  if (via.empty()) {
    net::shortest_path_tree(topo_, src, policy_, ws_);
    via.assign(ws_.via.begin(), ws_.via.end());
  }
  return via;
}

bool PathComputer::shortest(net::NodeId src, net::NodeId dst, net::Path& out) {
  GRIDVC_REQUIRE(src < topo_.node_count() && dst < topo_.node_count(),
                 "routing endpoint out of range");
  const std::vector<net::LinkId>& via = tree(src);
  if (src != dst && via[dst] == net::kNoLink) return false;
  net::tree_path(topo_, via, src, dst, out);
  return true;
}

bool PathComputer::compute(net::NodeId src, net::NodeId dst, BitsPerSecond rate,
                           Seconds start, Seconds end, net::Path& out) {
  GRIDVC_REQUIRE(rate > 0.0, "circuit rate must be positive");
  GRIDVC_REQUIRE(start < end, "circuit window inverted");
  // The headroom filter only removes links: no least-delay path, no path.
  if (!shortest(src, dst, out)) return false;
  const auto fits = [&](net::LinkId l) { return calendar_.available(l, start, end) >= rate; };
  if (std::all_of(out.begin(), out.end(), fits)) return true;
  const auto usable = [&](net::LinkId l) {
    if (policy_ && !policy_(l)) return false;
    return fits(l);
  };
  std::optional<net::Path> found = net::shortest_path(topo_, src, dst, usable, ws_);
  if (!found) return false;
  out = std::move(*found);
  return true;
}

}  // namespace gridvc::vc
