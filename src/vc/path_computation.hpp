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
// that path is memoised per endpoint pair and checked against the
// calendar first; the constrained search runs only when a link on it
// lacks headroom. Both give the same path: if every link of the cached
// path P has headroom, the filter removes only other links, so the
// distances along P stay put and at each node of P the smallest-id
// tight in-link is still P's own (DESIGN §10 spells this out).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "vc/bandwidth_calendar.hpp"

namespace gridvc::vc {

/// Administrative policy hook: return false to forbid a link for circuits.
using LinkPolicy = std::function<bool(net::LinkId)>;

class PathComputer {
 public:
  /// `policy` must answer the same for a link until the next
  /// invalidate(): its paths are memoised.
  PathComputer(const net::Topology& topo, const BandwidthCalendar& calendar,
               LinkPolicy policy = nullptr);

  /// Least-delay path from src to dst on which `rate` fits over
  /// [start, end), or nullopt when no such path exists.
  std::optional<net::Path> compute(net::NodeId src, net::NodeId dst, BitsPerSecond rate,
                                   Seconds start, Seconds end);

  /// Least-delay path from src to dst over the links the policy allows,
  /// ignoring the calendar: net::shortest_path(topo, src, dst, policy),
  /// memoised. The reference is valid until the next invalidate().
  const std::optional<net::Path>& shortest(net::NodeId src, net::NodeId dst);

  /// Forget every memoised path; call whenever the policy's answer for
  /// any link changes.
  void invalidate() { shortest_.clear(); }

 private:
  const net::Topology& topo_;
  const BandwidthCalendar& calendar_;
  LinkPolicy policy_;
  /// One entry per endpoint pair asked about, keyed (src << 32) | dst.
  std::unordered_map<std::uint64_t, std::optional<net::Path>> shortest_;
};

}  // namespace gridvc::vc
