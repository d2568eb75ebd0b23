#include "vc/path_computation.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gridvc::vc {

PathComputer::PathComputer(const net::Topology& topo, const BandwidthCalendar& calendar,
                           LinkPolicy policy)
    : topo_(topo), calendar_(calendar), policy_(std::move(policy)) {}

const std::optional<net::Path>& PathComputer::shortest(net::NodeId src, net::NodeId dst) {
  const std::uint64_t key = (std::uint64_t{src} << 32) | dst;
  auto it = shortest_.find(key);
  if (it == shortest_.end()) {
    it = shortest_.emplace(key, net::shortest_path(topo_, src, dst, policy_)).first;
  }
  return it->second;
}

std::optional<net::Path> PathComputer::compute(net::NodeId src, net::NodeId dst,
                                               BitsPerSecond rate, Seconds start,
                                               Seconds end) {
  GRIDVC_REQUIRE(rate > 0.0, "circuit rate must be positive");
  GRIDVC_REQUIRE(start < end, "circuit window inverted");
  const std::optional<net::Path>& least_delay = shortest(src, dst);
  if (!least_delay) return std::nullopt;  // the headroom filter only removes links
  const auto fits = [&](net::LinkId l) { return calendar_.available(l, start, end) >= rate; };
  if (std::all_of(least_delay->begin(), least_delay->end(), fits)) return least_delay;
  const auto usable = [&](net::LinkId l) {
    if (policy_ && !policy_(l)) return false;
    return fits(l);
  };
  return net::shortest_path(topo_, src, dst, usable);
}

}  // namespace gridvc::vc
