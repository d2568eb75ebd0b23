// Driving the OSCARS-like circuit controller directly.
//
// Shows the control-plane API: advance reservations, immediate-use
// requests under batched (1-min) vs hardware (50 ms) signaling,
// admission rejections when a window is full, and early release. Chains
// of per-domain circuits are booked hop by hop by the sharded
// federation: run `gridvc-simulate --scenario federation`.
#include <cstdio>

#include "common/strings.hpp"
#include "vc/idc.hpp"
#include "workload/testbed.hpp"

using namespace gridvc;

int main() {
  workload::Testbed tb = workload::build_esnet_testbed();
  sim::Simulator sim;

  // --- Single-domain controller, ESnet-style batched signaling. -----------
  vc::Idc idc(sim, tb.topo);  // kBatchedAutomatic, 1-min batches

  // An advance reservation: 4 Gbps NERSC->ORNL for ten minutes, starting
  // in one hour. Activation is exactly at start time.
  vc::ReservationRequest req;
  req.src = tb.nersc;
  req.dst = tb.ornl;
  req.bandwidth = gbps(4);
  req.start_time = 3600.0;
  req.end_time = 4200.0;
  req.description = "climate-model output push";
  const auto advance = idc.create_reservation(
      req,
      [&](const vc::Circuit& c) {
        std::printf("[%8.1f s] advance circuit %llu ACTIVE on a %zu-hop path "
                    "(setup delay %.1f s)\n",
                    sim.now(), static_cast<unsigned long long>(c.id), c.path.size(),
                    c.setup_delay());
      },
      [&](const vc::Circuit& c) {
        std::printf("[%8.1f s] circuit %llu released\n", sim.now(),
                    static_cast<unsigned long long>(c.id));
      });
  std::printf("advance reservation accepted: %s\n", advance.accepted() ? "yes" : "no");

  // An immediate-use request under batched signaling: >= 1 min setup.
  idc.request_immediate(tb.slac, tb.bnl, gbps(2), 1800.0, [&](const vc::Circuit& c) {
    std::printf("[%8.1f s] immediate-use circuit ACTIVE after %.1f s "
                "(batched signaling: minimum one batch interval)\n",
                sim.now(), c.active_at - c.request.start_time);
  });

  // The same request under hypothetical 50 ms hardware signaling.
  vc::IdcConfig fast_cfg;
  fast_cfg.mode = vc::SignalingMode::kImmediate;
  fast_cfg.immediate_setup_delay = 0.05;
  vc::Idc fast_idc(sim, tb.topo, fast_cfg);
  fast_idc.request_immediate(tb.slac, tb.bnl, gbps(2), 1800.0, [&](const vc::Circuit& c) {
    std::printf("[%8.1f s] hardware-signaled circuit ACTIVE after %.3f s\n", sim.now(),
                c.active_at - c.request.start_time);
  });

  // Admission control: a second 8 Gbps circuit in the same window on the
  // same bottleneck is refused (a disjoint window so the earlier 4 Gbps
  // booking does not interfere with the first request).
  vc::ReservationRequest hog = req;
  hog.bandwidth = gbps(8);
  hog.start_time = 7200.0;
  hog.end_time = 7800.0;
  const auto first = idc.create_reservation(hog);
  const auto second = idc.create_reservation(hog);
  std::printf("two overlapping 8 Gbps requests: first %s, second %s\n",
              first.accepted() ? "accepted" : "rejected",
              second.accepted() ? "accepted" : "REJECTED (insufficient bandwidth)");

  sim.run();

  std::printf("\nIDC stats: accepted=%llu rejected(no bw)=%llu blocking=%s\n",
              static_cast<unsigned long long>(idc.stats().accepted),
              static_cast<unsigned long long>(idc.stats().rejected_no_bandwidth),
              format_percent(idc.stats().blocking_probability(), 1).c_str());
  return 0;
}
