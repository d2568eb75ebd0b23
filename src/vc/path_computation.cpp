#include "vc/path_computation.hpp"

#include "common/error.hpp"

namespace gridvc::vc {

PathComputer::PathComputer(const net::Topology& topo, const BandwidthCalendar& calendar,
                           LinkPolicy policy)
    : topo_(topo), calendar_(calendar), policy_(std::move(policy)) {}

std::optional<net::Path> PathComputer::compute(net::NodeId src, net::NodeId dst,
                                               BitsPerSecond rate, Seconds start,
                                               Seconds end) const {
  GRIDVC_REQUIRE(rate > 0.0, "circuit rate must be positive");
  GRIDVC_REQUIRE(start < end, "circuit window inverted");
  const auto usable = [&](net::LinkId l) {
    if (policy_ && !policy_(l)) return false;
    return calendar_.available(l, start, end) >= rate;
  };
  return net::shortest_path(topo_, src, dst, usable);
}

}  // namespace gridvc::vc
