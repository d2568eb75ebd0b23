// Quickstart: the five-minute tour of the library.
//
//   1. Build the multi-site testbed topology.
//   2. Move a batch of files, two at a time, through the managed
//      transfer service over the event-driven network between two DTNs.
//   3. Collect the usage-statistics log, group it into sessions, and
//      print the characterization tables.
//   4. Dump the run's metrics-registry snapshot — every layer that
//      touched the simulator left its counters there.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/session_grouping.hpp"
#include "analysis/throughput_analysis.hpp"
#include "gridftp/transfer_engine.hpp"
#include "gridftp/transfer_service.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "stats/table.hpp"
#include "workload/testbed.hpp"

using namespace gridvc;

int main() {
  // 1. Topology: seven national-lab DTNs on an ESnet-like 10G backbone.
  workload::Testbed tb = workload::build_esnet_testbed();
  sim::Simulator sim;
  net::Network network(sim, tb.topo);
  std::printf("testbed: %zu nodes, %zu directed links; NERSC<->ORNL RTT = %.1f ms\n",
              tb.topo.node_count(), tb.topo.link_count(),
              tb.rtt(tb.nersc, tb.ornl) * 1000.0);

  // 2. Two data-transfer nodes and the transfer engine.
  gridftp::ServerConfig cfg;
  cfg.name = "nersc-dtn";
  cfg.nic_rate = gbps(4);
  cfg.disk_read_rate = gbps(2.5);
  cfg.disk_write_rate = gbps(1.5);
  gridftp::Server nersc(cfg);
  cfg.name = "ornl-dtn";
  gridftp::Server ornl(cfg);

  gridftp::UsageStatsCollector collector;
  gridftp::TransferEngineConfig engine_cfg;
  engine_cfg.server_noise_sigma = 0.25;
  gridftp::TransferEngine engine(network, collector, engine_cfg, Rng(42));

  // 3. A user script: move 24 files of 512 MiB, two at a time.
  gridftp::TransferServiceConfig service_cfg;
  service_cfg.per_task_concurrency = 2;
  gridftp::TransferService service(sim, engine, service_cfg);
  gridftp::TransferSpec tmpl;
  tmpl.src = {&nersc, gridftp::IoMode::kDiskRead};
  tmpl.dst = {&ornl, gridftp::IoMode::kDiskWrite};
  tmpl.path = tb.path(tb.nersc, tb.ornl);
  tmpl.rtt = tb.rtt(tb.nersc, tb.ornl);
  tmpl.streams = 8;
  tmpl.remote_host = "ornl-dtn";

  gridftp::TaskStatus task;
  service.submit("quickstart", std::vector<Bytes>(24, 512 * MiB), tmpl,
                 [&](const gridftp::TaskStatus& s) { task = s; });
  sim.run();

  const Seconds duration = task.finished_at - task.started_at;
  std::printf("session: %zu transfers, %.1f GB in %.1f s (effective %.2f Gbps)\n\n",
              task.files_done, to_gigabytes(task.bytes_done), duration,
              to_gbps(achieved_rate(task.bytes_done, duration)));

  // 4. Analyze the log the way the paper does.
  const auto& log = collector.log();
  const auto sessions = analysis::group_sessions(log, {.gap = 60.0});
  stats::Table table("Transfer characterization");
  table.set_header(analysis::summary_header("Quantity"));
  table.add_row(analysis::summary_row("Throughput (Mbps)",
                                      analysis::throughput_summary_mbps(log), 1));
  table.add_row(analysis::summary_row("Duration (s)",
                                      analysis::duration_summary_seconds(log), 2));
  std::printf("%s", table.render().c_str());
  std::printf("sessions found at g = 1 min: %zu\n", sessions.size());

  // 5. What the observability layer recorded, for free, along the way.
  const obs::MetricsSnapshot snap = sim.obs().registry().snapshot();
  std::printf("\nmetrics snapshot (%zu metrics; counters/gauges shown):\n",
              snap.entries.size());
  for (const auto& entry : snap.entries) {
    if (entry.kind == obs::MetricKind::kHistogram ||
        entry.kind == obs::MetricKind::kLogHistogram) {
      continue;
    }
    std::printf("  %-36s %.0f\n", entry.name.c_str(), entry.value);
  }
  return 0;
}
