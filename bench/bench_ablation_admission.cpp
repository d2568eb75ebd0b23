// Ablation D: advance-reservation admission control.
//
// Section II: "advance-reservation service is required when the requested
// circuit rate is a significant portion of link capacity if the network
// is to be operated at high utilization and with low call blocking
// probability." We drive the IDC with Poisson circuit requests of varying
// rate fractions and measure the blocking probability.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "stats/table.hpp"
#include "vc/idc.hpp"
#include "workload/testbed.hpp"

using namespace gridvc;

namespace {

struct Outcome {
  double blocking = 0.0;
  double utilization = 0.0;  // mean reserved fraction of the bottleneck
};

Outcome run(double rate_fraction, double offered_load, bool advance, std::uint64_t seed) {
  workload::Testbed tb = workload::build_esnet_testbed();
  sim::Simulator sim;
  vc::IdcConfig cfg;
  cfg.mode = vc::SignalingMode::kImmediate;
  vc::Idc idc(sim, tb.topo, cfg);

  Rng rng(seed);
  const BitsPerSecond rate = gbps(10) * rate_fraction;
  const Seconds hold = 600.0;  // mean circuit duration
  // offered_load = lambda * hold * rate_fraction (erlangs of the link).
  const Seconds mean_interarrival = hold * rate_fraction / offered_load;

  const net::NodeId endpoints[] = {tb.ncar, tb.slac, tb.nersc, tb.anl, tb.ornl,
                                   tb.nics, tb.bnl};
  const Seconds horizon = 100000.0;
  double reserved_time_product = 0.0;

  // Self-scheduling arrival process; the simulation drains inside this
  // scope, so the events may hold references to these named bodies.
  std::function<void()> arrival;
  const auto request = [&] {
    vc::ReservationRequest req;
    req.src = endpoints[rng.uniform_int(0, 6)];
    do {
      req.dst = endpoints[rng.uniform_int(0, 6)];
    } while (req.dst == req.src);
    req.bandwidth = rate;
    // Advance reservations book a future window; immediate ones start now.
    const Seconds lead = advance ? rng.uniform(600.0, 7200.0) : 0.0;
    req.start_time = sim.now() + lead;
    req.end_time = req.start_time + rng.exponential(hold);
    const auto result = idc.create_reservation(req);
    if (result.accepted()) {
      reserved_time_product += (req.end_time - req.start_time) * rate_fraction;
    }
    arrival();
  };
  arrival = [&] {
    const Seconds next = sim.now() + rng.exponential(mean_interarrival);
    if (next >= horizon) return;
    sim.schedule_at(next, std::ref(request));
  };
  arrival();
  sim.run_until(horizon + 20000.0);

  Outcome out;
  out.blocking = idc.stats().blocking_probability();
  out.utilization = reserved_time_product / horizon /
                    3.0;  // rough: ~3 bottleneck-ish core links
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "ablation_admission");

  bench::print_exhibit_header(
      "Ablation D: circuit admission -- blocking probability vs requested rate",
      "Section II (qualitative): high per-circuit rates need advance "
      "reservations to keep blocking low at high utilization");

  stats::Table table("Blocking probability of dynamic circuit requests (measured)");
  table.set_header({"Rate (fraction of 10G)", "Offered load (erlang)",
                    "Immediate-use blocking", "Advance-booked blocking"});
  for (double fraction : {0.05, 0.2, 0.5, 0.8}) {
    for (double load : {0.3, 0.7}) {
      const auto imm = run(fraction, load, /*advance=*/false, 31);
      const auto adv = run(fraction, load, /*advance=*/true, 31);
      table.add_row({format_fixed(fraction, 2), format_fixed(load, 1),
                     format_percent(imm.blocking, 1),
                     format_percent(adv.blocking, 1)});
    }
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "Reading: small circuits almost never block; once a single request\n"
      "asks for a large fraction of a link, blocking rises steeply with\n"
      "offered load -- the regime where admission control is essential.\n"
      "Advance booking does not lower the blocking rate at equal load (it\n"
      "holds future windows, fragmenting the calendar slightly); its value\n"
      "is that an accepted request is *guaranteed* its future slot, which\n"
      "is what lets the provider run links at high utilization without\n"
      "over-promising -- the paper's rationale for OSCARS' design.\n");
  return 0;
}
