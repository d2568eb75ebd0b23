// Ablation A: rate-guaranteed virtual circuits vs IP-routed best effort.
//
// The paper's motivating claim (Section I, positive #1): VCs "have the
// potential for reducing throughput variance for the large data transfers
// as they can be provisioned with rate guarantees". We run the same
// sequence of large transfers over a path with fluctuating competing
// traffic, once best-effort and once with a per-transfer circuit, and
// compare the throughput distributions.
#include <cstdio>

#include <memory>

#include "bench_common.hpp"
#include "gridftp/transfer_engine.hpp"
#include "net/network.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "vc/idc.hpp"
#include "workload/testbed.hpp"
#include "analysis/report.hpp"
#include "common/strings.hpp"

using namespace gridvc;

namespace {

std::vector<double> run_mode(bool use_circuit, std::uint64_t seed) {
  workload::Testbed tb = workload::build_esnet_testbed();
  sim::Simulator sim;
  net::Network network(sim, tb.topo);

  gridftp::ServerConfig sc;
  sc.name = "nersc-dtn";
  sc.nic_rate = gbps(9);
  gridftp::Server nersc(sc);
  sc.name = "anl-dtn";
  gridftp::Server anl(sc);

  gridftp::UsageStatsCollector collector;
  gridftp::TransferEngineConfig ecfg;
  ecfg.server_noise_sigma = 0.10;
  ecfg.tcp.stream_buffer = 64 * MiB;
  gridftp::TransferEngine engine(network, collector, ecfg, Rng(seed));

  const net::Path path = tb.path(tb.nersc, tb.anl);
  const Seconds rtt = tb.rtt(tb.nersc, tb.anl);

  // Fluctuating competitor: a best-effort aggregate whose demand jumps
  // between light and heavy every few minutes.
  Rng comp_rng(seed + 17);
  net::FlowOptions comp_opts;
  comp_opts.cap = gbps(2);
  const net::FlowId competitor =
      network.start_flow(path, static_cast<Bytes>(1) << 60, comp_opts, nullptr);
  sim.schedule_periodic(120.0, 120.0, [&] {
    network.update_cap(competitor, comp_rng.bernoulli(0.5) ? gbps(8) : gbps(1));
    return true;
  });

  vc::IdcConfig icfg;
  icfg.mode = vc::SignalingMode::kImmediate;
  vc::Idc idc(sim, tb.topo, icfg);

  std::vector<double> throughput_gbps;
  constexpr int kTransfers = 60;
  // The events hold a reference to this body: a closure stays within the
  // simulator's inline callback capacity.
  const auto launch = [&] {
    gridftp::TransferSpec spec;
    spec.src = {&nersc, gridftp::IoMode::kMemory};
    spec.dst = {&anl, gridftp::IoMode::kMemory};
    spec.path = path;
    spec.rtt = rtt;
    spec.size = 8 * GiB;
    spec.streams = 8;
    spec.remote_host = "anl-dtn";
    if (use_circuit) {
      idc.request_immediate(tb.nersc, tb.anl, gbps(6), 240.0,
                            [&, spec](const vc::Circuit& circuit) {
                              auto s = spec;
                              s.guarantee = circuit.request.bandwidth;
                              engine.submit(s, [&](const gridftp::TransferRecord& r) {
                                throughput_gbps.push_back(to_gbps(r.throughput()));
                              });
                            });
    } else {
      engine.submit(spec, [&](const gridftp::TransferRecord& r) {
        throughput_gbps.push_back(to_gbps(r.throughput()));
      });
    }
  };
  for (int i = 0; i < kTransfers; ++i) sim.schedule_at(300.0 * (i + 1), std::ref(launch));
  sim.run_until(300.0 * (kTransfers + 4));
  return throughput_gbps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "ablation_vc_vs_ip");

  bench::print_exhibit_header(
      "Ablation A: IP-routed best effort vs rate-guaranteed dynamic circuit",
      "Section I, positive #1: rate guarantees reduce throughput variance for "
      "alpha flows (qualitative claim; no table in the paper)");

  const auto best_effort = run_mode(false, 1001);
  const auto circuit = run_mode(true, 1001);

  stats::Table table("60x 8 GiB transfers under a fluctuating competitor (Gbps)");
  table.set_header(analysis::summary_header("Service", /*with_stddev=*/true,
                                            /*with_count=*/true));
  table.add_row(analysis::summary_row("IP-routed (best effort)",
                                      stats::summarize(best_effort), 2, true, true));
  table.add_row(analysis::summary_row("Dynamic VC (6 Gbps guarantee)",
                                      stats::summarize(circuit), 2, true, true));
  std::printf("%s\n", table.render().c_str());

  const auto be = stats::summarize(best_effort);
  const auto vc = stats::summarize(circuit);
  std::printf("coefficient of variation: best effort %s vs circuit %s\n",
              format_percent(be.cv(), 1).c_str(), format_percent(vc.cv(), 1).c_str());
  std::printf("IQR: best effort %.2f Gbps vs circuit %.2f Gbps\n", be.iqr(), vc.iqr());
  std::printf("\nThe guarantee floors the transfer at its reserved rate while the\n"
              "competitor fluctuates, collapsing the variance -- the paper's case\n"
              "for carrying alpha flows on circuits.\n");
  return 0;
}
