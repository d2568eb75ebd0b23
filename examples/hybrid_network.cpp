// Hybrid service comparison: the same alpha-flow workload carried (a) on
// the IP-routed best-effort service and (b) on dynamic circuits, while
// general-purpose cross traffic shares the path.
//
// This is the paper's operational motivation in one program: circuits
// stabilize the alpha flows' throughput (Section I positive #1), and the
// virtual-queue isolation quantifies the jitter relief for the
// general-purpose flows (positive #3).
#include <cstdio>

#include "gridftp/transfer_engine.hpp"
#include "net/network.hpp"
#include "stats/summary.hpp"
#include "vc/idc.hpp"
#include "vc/queue_isolation.hpp"
#include "workload/testbed.hpp"
#include "common/strings.hpp"

using namespace gridvc;

namespace {

stats::Summary run_transfers(bool circuits) {
  workload::Testbed tb = workload::build_esnet_testbed();
  sim::Simulator sim;
  net::Network network(sim, tb.topo);

  gridftp::ServerConfig cfg;
  cfg.name = "slac-dtn";
  cfg.nic_rate = gbps(9);
  gridftp::Server slac(cfg);
  cfg.name = "bnl-dtn";
  gridftp::Server bnl(cfg);

  gridftp::UsageStatsCollector collector;
  gridftp::TransferEngineConfig ecfg;
  ecfg.server_noise_sigma = 0.12;
  ecfg.tcp.stream_buffer = 64 * MiB;
  gridftp::TransferEngine engine(network, collector, ecfg, Rng(7));

  const net::Path path = tb.path(tb.slac, tb.bnl);
  const Seconds rtt = tb.rtt(tb.slac, tb.bnl);

  // General-purpose traffic whose demand surges periodically.
  Rng surge_rng(99);
  net::FlowOptions gp;
  gp.cap = gbps(1);
  const auto gp_flow = network.start_flow(path, static_cast<Bytes>(1) << 60, gp, nullptr);
  sim.schedule_periodic(180.0, 180.0, [&] {
    network.update_cap(gp_flow, surge_rng.bernoulli(0.4) ? gbps(7.5) : gbps(1));
    return true;
  });

  vc::IdcConfig icfg;
  icfg.mode = vc::SignalingMode::kImmediate;
  vc::Idc idc(sim, tb.topo, icfg);

  std::vector<double> gbps_seen;
  // The events hold a reference to this body: a closure stays within the
  // simulator's inline callback capacity.
  const auto launch = [&] {
    gridftp::TransferSpec spec;
    spec.src = {&slac, gridftp::IoMode::kMemory};
    spec.dst = {&bnl, gridftp::IoMode::kMemory};
    spec.path = path;
    spec.rtt = rtt;
    spec.size = 12 * GiB;
    spec.streams = 8;
    spec.remote_host = "bnl-dtn";
    // NOTE: the recorder must be captured by value wherever it may fire
    // after this scheduled lambda returns (the circuit activation path).
    const auto record_result = [&gbps_seen](const gridftp::TransferRecord& r) {
      gbps_seen.push_back(to_gbps(r.throughput()));
    };
    if (circuits) {
      idc.request_immediate(tb.slac, tb.bnl, gbps(6), 350.0,
                            [&, spec, record_result](const vc::Circuit& c) {
                              auto s = spec;
                              s.guarantee = c.request.bandwidth;
                              engine.submit(s, record_result);
                            });
    } else {
      engine.submit(spec, record_result);
    }
  };
  for (int i = 0; i < 40; ++i) sim.schedule_at(400.0 * (i + 1), std::ref(launch));
  sim.run_until(400.0 * 44);
  return stats::summarize(gbps_seen);
}

}  // namespace

int main() {
  std::printf("=== Alpha-flow throughput: IP-routed vs dynamic circuits ===\n");
  const auto ip = run_transfers(false);
  const auto vc = run_transfers(true);
  std::printf("IP-routed : median %.2f Gbps, IQR %.2f, CV %s (n=%zu)\n", ip.median,
              ip.iqr(), format_percent(ip.cv(), 1).c_str(), ip.count);
  std::printf("circuits  : median %.2f Gbps, IQR %.2f, CV %s (n=%zu)\n", vc.median,
              vc.iqr(), format_percent(vc.cv(), 1).c_str(), vc.count);

  std::printf("\n=== General-purpose packet jitter: shared FIFO vs isolation ===\n");
  vc::InterfaceModel iface;
  iface.capacity = gbps(10);
  iface.gp_utilization = 0.07;
  iface.alpha_burst_per_second = 80.0;
  iface.alpha_burst_bytes = 4 * MiB;
  vc::QueueIsolationModel queue_model(iface);
  const auto shared = queue_model.shared_fifo_analytic();
  const auto isolated = queue_model.isolated_analytic();
  std::printf("shared FIFO : mean %.1f us, jitter %.1f us, p99 %.1f us\n",
              shared.mean * 1e6, shared.stddev * 1e6, shared.p99 * 1e6);
  std::printf("isolated VQ : mean %.1f us, jitter %.1f us, p99 %.1f us\n",
              isolated.mean * 1e6, isolated.stddev * 1e6, isolated.p99 * 1e6);
  std::printf("\nBoth sides of the paper's bargain: circuits steady the alpha\n"
              "flows AND shield everyone else from their bursts.\n");
  return 0;
}
