#include "workload/testbed.hpp"

#include "common/error.hpp"

namespace gridvc::workload {

using net::NodeId;
using net::NodeKind;

net::Path Testbed::path(NodeId src, NodeId dst) const {
  const auto p = net::shortest_path(topo, src, dst);
  if (!p) throw NotFoundError("testbed hosts are not connected");
  return *p;
}

Seconds Testbed::rtt(NodeId src, NodeId dst) const {
  return topo.path_delay(path(src, dst)) + topo.path_delay(path(dst, src));
}

std::vector<net::LinkId> Testbed::backbone_links(NodeId src, NodeId dst) const {
  std::vector<net::LinkId> out;
  for (net::LinkId lid : path(src, dst)) {
    const net::Link& l = topo.link(lid);
    if (topo.node(l.from).kind == NodeKind::kRouter &&
        topo.node(l.to).kind == NodeKind::kRouter) {
      out.push_back(lid);
    }
  }
  return out;
}

Testbed build_esnet_testbed() {
  Testbed tb;
  auto& topo = tb.topo;
  const BitsPerSecond wan = gbps(10.0);

  // DTN hosts.
  tb.ncar = topo.add_node("ncar-dtn", NodeKind::kHost, "ncar");
  tb.nics = topo.add_node("nics-dtn", NodeKind::kHost, "nics");
  tb.slac = topo.add_node("slac-dtn", NodeKind::kHost, "slac");
  tb.bnl = topo.add_node("bnl-dtn", NodeKind::kHost, "bnl");
  tb.nersc = topo.add_node("nersc-dtn", NodeKind::kHost, "nersc");
  tb.ornl = topo.add_node("ornl-dtn", NodeKind::kHost, "ornl");
  tb.anl = topo.add_node("anl-dtn", NodeKind::kHost, "anl");

  // Site edge (provider-edge) routers. §VII-C: "ESnet locates its own
  // (provider-edge) routers within the NERSC and ORNL campuses", so the
  // access links are part of ESnet; we tag the PEs with the site domain
  // to exercise the inter-domain machinery.
  const NodeId pe_ncar = topo.add_node("ncar-pe", NodeKind::kRouter, "ncar");
  const NodeId pe_nics = topo.add_node("nics-pe", NodeKind::kRouter, "nics");
  const NodeId pe_slac = topo.add_node("slac-pe", NodeKind::kRouter, "slac");
  const NodeId pe_bnl = topo.add_node("bnl-pe", NodeKind::kRouter, "bnl");
  const NodeId pe_nersc = topo.add_node("nersc-pe", NodeKind::kRouter, "nersc");
  const NodeId pe_ornl = topo.add_node("ornl-pe", NodeKind::kRouter, "ornl");
  const NodeId pe_anl = topo.add_node("anl-pe", NodeKind::kRouter, "anl");

  // ESnet core, laid out roughly geographically:
  //   snv (Sunnyvale) - den (Denver) - kan (Kansas City) - chi (Chicago)
  //   chi - newy (New York); chi - nash (Nashville)
  const NodeId snv = topo.add_node("es-snv", NodeKind::kRouter, "esnet");
  const NodeId den = topo.add_node("es-den", NodeKind::kRouter, "esnet");
  const NodeId kan = topo.add_node("es-kan", NodeKind::kRouter, "esnet");
  const NodeId chi = topo.add_node("es-chi", NodeKind::kRouter, "esnet");
  const NodeId nash = topo.add_node("es-nash", NodeKind::kRouter, "esnet");
  const NodeId newy = topo.add_node("es-newy", NodeKind::kRouter, "esnet");

  // Host access links (LAN, negligible delay).
  topo.add_duplex_link(tb.ncar, pe_ncar, wan, 0.0001);
  topo.add_duplex_link(tb.nics, pe_nics, wan, 0.0001);
  topo.add_duplex_link(tb.slac, pe_slac, wan, 0.0001);
  topo.add_duplex_link(tb.bnl, pe_bnl, wan, 0.0001);
  topo.add_duplex_link(tb.nersc, pe_nersc, wan, 0.0001);
  topo.add_duplex_link(tb.ornl, pe_ornl, wan, 0.0001);
  topo.add_duplex_link(tb.anl, pe_anl, wan, 0.0001);

  // PE attachment (metro).
  topo.add_duplex_link(pe_nersc, snv, wan, 0.001);
  topo.add_duplex_link(pe_slac, snv, wan, 0.001);
  topo.add_duplex_link(pe_ncar, den, wan, 0.002);
  topo.add_duplex_link(pe_anl, chi, wan, 0.001);
  topo.add_duplex_link(pe_ornl, nash, wan, 0.002);
  topo.add_duplex_link(pe_nics, nash, wan, 0.002);
  topo.add_duplex_link(pe_bnl, newy, wan, 0.001);

  // Core links. One-way delays chosen so SLAC->BNL RTT ~= 80 ms:
  //   slac: 0.0001 + 0.001 + 14 + 6 + 6 + 12 + 0.001 + 0.0001 ~= 39 ms.
  topo.add_duplex_link(snv, den, wan, 0.014);
  topo.add_duplex_link(den, kan, wan, 0.006);
  topo.add_duplex_link(kan, chi, wan, 0.006);
  topo.add_duplex_link(chi, newy, wan, 0.012);
  topo.add_duplex_link(chi, nash, wan, 0.007);

  return tb;
}

TwoSpanWan build_two_span_wan() {
  TwoSpanWan wan;
  auto& topo = wan.topo;
  const BitsPerSecond rate = gbps(10.0);
  wan.src = topo.add_node("src-dtn", NodeKind::kHost);
  const NodeId edge_a = topo.add_node("edge-a", NodeKind::kRouter);
  const NodeId r1 = topo.add_node("r1", NodeKind::kRouter);
  const NodeId r2 = topo.add_node("r2", NodeKind::kRouter);
  const NodeId edge_b = topo.add_node("edge-b", NodeKind::kRouter);
  wan.dst = topo.add_node("dst-dtn", NodeKind::kHost);
  const net::LinkId src_a = topo.add_duplex_link(wan.src, edge_a, rate, 0.0005).first;
  const net::LinkId a_r1 = topo.add_duplex_link(edge_a, r1, rate, 0.002).first;
  const net::LinkId r1_b = topo.add_duplex_link(r1, edge_b, rate, 0.002).first;
  topo.add_duplex_link(edge_a, r2, rate, 0.008);
  topo.add_duplex_link(r2, edge_b, rate, 0.008);
  const net::LinkId b_dst = topo.add_duplex_link(edge_b, wan.dst, rate, 0.0005).first;
  wan.data_path = {src_a, a_r1, r1_b, b_dst};
  wan.primary_span = {a_r1, r1_b};
  return wan;
}

}  // namespace gridvc::workload
