// The simulated multi-site testbed.
//
// A stand-in for the real-world infrastructure of the paper's study:
// seven DOE/NSF site DTNs (NERSC, SLAC, NCAR, NICS, ORNL, ANL, BNL)
// attached through site edge routers to an ESnet-like 10 Gbps backbone.
// Link delays are set so the four studied paths have round-trip times
// consistent with the paper (SLAC–BNL ≈ 80 ms — the BDP calculation of
// §VII-B — NCAR–NICS notably shorter, NERSC–ORNL in between), and the
// NERSC–ORNL path crosses five core routers whose egress interfaces are
// the monitored "rt1..rt5" of Tables X–XIII.
//
// The fault scenarios (faulty-wan, the chaos harness) run on a smaller
// two-span WAN instead, built here once.
#pragma once

#include <string>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"

namespace gridvc::workload {

struct Testbed {
  net::Topology topo;

  // Host (DTN) node ids.
  net::NodeId ncar = 0, nics = 0, slac = 0, bnl = 0, nersc = 0, ornl = 0, anl = 0;

  /// Least-delay path between two hosts. Throws NotFoundError when
  /// disconnected (never, in the built testbed).
  net::Path path(net::NodeId src, net::NodeId dst) const;

  /// Round-trip time of the least-delay path (both directions).
  Seconds rtt(net::NodeId src, net::NodeId dst) const;

  /// The router->router (backbone egress-interface) links along the
  /// src->dst path — the interfaces an SNMP study would poll.
  std::vector<net::LinkId> backbone_links(net::NodeId src, net::NodeId dst) const;
};

/// Build the seven-site, six-core-router ESnet-like testbed. All links
/// are 10 Gbps duplex.
Testbed build_esnet_testbed();

/// The fault scenarios' WAN, all links 10 Gbps duplex:
///
///   src-dtn - edge-a - r1 - edge-b - dst-dtn   primary span, 2 ms hops
///                   \_ r2 _/                   backup span, 8 ms hops
///
/// The primary span carries the data path and the circuits. Faults hit
/// only its forward links, so a failed circuit can always re-signal onto
/// the backup span.
struct TwoSpanWan {
  net::Topology topo;
  net::NodeId src = 0, dst = 0;
  net::Path data_path;  ///< src-dtn -> edge-a -> r1 -> edge-b -> dst-dtn
  /// edge-a -> r1 and r1 -> edge-b: the fault schedule's link targets.
  std::vector<net::LinkId> primary_span;
};

TwoSpanWan build_two_span_wan();

}  // namespace gridvc::workload
