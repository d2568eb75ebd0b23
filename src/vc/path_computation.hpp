// Constrained path computation for virtual circuits.
//
// "there is an opportunity for a management software system such as
// OSCARS to explicitly select a path for the virtual circuit based on
// current network conditions, policies, and service level agreements"
// (§I). The path computation engine prunes links that (a) lack calendar
// headroom for the requested rate over the requested window or (b) are
// administratively excluded, then runs least-delay Dijkstra over the
// survivors — the widest-headroom tie-break keeps load spread.
#pragma once

#include <functional>
#include <optional>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "vc/bandwidth_calendar.hpp"

namespace gridvc::vc {

/// Administrative policy hook: return false to forbid a link for circuits.
using LinkPolicy = std::function<bool(net::LinkId)>;

class PathComputer {
 public:
  PathComputer(const net::Topology& topo, const BandwidthCalendar& calendar,
               LinkPolicy policy = nullptr);

  /// Least-delay path from src to dst on which `rate` fits over
  /// [start, end), or nullopt when no such path exists.
  std::optional<net::Path> compute(net::NodeId src, net::NodeId dst, BitsPerSecond rate,
                                   Seconds start, Seconds end) const;

 private:
  const net::Topology& topo_;
  const BandwidthCalendar& calendar_;
  LinkPolicy policy_;
};

}  // namespace gridvc::vc
