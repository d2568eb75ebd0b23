// Ablation: malleable (volume-preserving) reservations vs fixed-window
// admission.
//
// Chen & Primet-style malleable scheduling reads a reservation as a
// volume demand — preferred rate times window — that the IDC may deliver
// as any stepwise profile inside the window. This exhibit drives the
// ESnet testbed with Poisson advance reservations at 2-10x offered load
// and compares fixed-window vs malleable admission on two axes:
// acceptance ratio (malleable must dominate: the flat shape is always
// among the shaper's candidates) and mean completion time of accepted
// demands (greedy earliest-fill usually delivers the volume before the
// nominal deadline).
//
// The emitted BENCH_ablation_malleable.json carries lower-is-better
// ratio_* keys (rejection fractions and the malleable/fixed completion
// ratio) that gridvc-perf-gate compares against the checked-in baseline:
// the whole simulation is deterministic in (config, seed), so any drift
// is a behavioral regression, not noise. CI runs --quick; the baseline
// is generated with --quick too.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "stats/table.hpp"
#include "vc/idc.hpp"
#include "workload/testbed.hpp"

using namespace gridvc;

namespace {

struct Outcome {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shaped = 0;
  std::uint64_t defragmented = 0;
  std::uint64_t rerouted = 0;
  double completion_sum = 0.0;  // booked delivery end - requested start

  double acceptance() const {
    return offered > 0 ? static_cast<double>(accepted) / static_cast<double>(offered)
                       : 0.0;
  }
  double rejection() const { return 1.0 - acceptance(); }
  double mean_completion() const {
    return accepted > 0 ? completion_sum / static_cast<double>(accepted) : 0.0;
  }
};

Outcome run(double load_multiplier, bool malleable, Seconds horizon,
            std::uint64_t seed) {
  workload::Testbed tb = workload::build_esnet_testbed();
  sim::Simulator sim;
  vc::IdcConfig cfg;
  cfg.mode = vc::SignalingMode::kImmediate;
  vc::Idc idc(sim, tb.topo, cfg);

  Rng rng(seed);
  const Seconds hold = 600.0;       // mean reserved window
  const double rate_fraction = 0.4; // preferred rate as a fraction of 10G
  // offered erlangs of a link = multiplier; lambda = load / (hold * frac).
  const Seconds mean_interarrival = hold * rate_fraction / load_multiplier;

  const net::NodeId endpoints[] = {tb.ncar, tb.slac, tb.nersc, tb.anl, tb.ornl,
                                   tb.nics, tb.bnl};
  Outcome out;

  // Self-scheduling arrival process; the simulation drains inside this
  // scope, so the events may hold references to these named bodies.
  std::function<void()> arrival;
  const auto request = [&] {
    vc::ReservationRequest req;
    req.src = endpoints[rng.uniform_int(0, 6)];
    do {
      req.dst = endpoints[rng.uniform_int(0, 6)];
    } while (req.dst == req.src);
    req.bandwidth = gbps(10) * rate_fraction;
    // Advance booking with lead time: the live reservation set is a mix
    // of scheduled and active circuits, so shaping, defragmentation
    // (scheduled-only), and reroute all get exercised.
    req.start_time = sim.now() + rng.uniform(60.0, 3600.0);
    req.end_time = req.start_time + rng.exponential(hold);
    req.malleable = malleable;
    ++out.offered;
    const auto result = idc.create_reservation(req);
    if (result.accepted()) {
      ++out.accepted;
      const vc::Circuit& c = idc.circuit(*result.circuit_id);
      const Seconds done =
          c.profile.empty() ? c.request.end_time : c.profile.back().end;
      out.completion_sum += done - req.start_time;
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

  out.shaped = idc.stats().shaped;
  out.defragmented = idc.stats().defragmented;
  out.rerouted = idc.stats().rerouted;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "ablation_malleable");
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const Seconds horizon = quick ? 20000.0 : 100000.0;

  bench::print_exhibit_header(
      "Ablation: malleable reservations -- acceptance and completion vs "
      "fixed-window",
      "Extension of the SectionII admission study: volume-preserving shaped "
      "profiles (Chen & Primet) instead of reject-on-no-flat-fit");

  stats::Table table(
      "Fixed-window vs malleable admission under overload (measured)");
  table.set_header({"Load (x)", "Fixed accept", "Malleable accept", "Shaped",
                    "Defrag", "Rerouted", "Fixed MCT (s)", "Malleable MCT (s)"});

  bool dominance_held = true;
  for (double load : {2.0, 4.0, 6.0, 10.0}) {
    const auto fixed = run(load, /*malleable=*/false, horizon, 2012);
    const auto flex = run(load, /*malleable=*/true, horizon, 2012);
    table.add_row({format_fixed(load, 0), format_percent(fixed.acceptance(), 1),
                   format_percent(flex.acceptance(), 1),
                   std::to_string(flex.shaped), std::to_string(flex.defragmented),
                   std::to_string(flex.rerouted),
                   format_fixed(fixed.mean_completion(), 1),
                   format_fixed(flex.mean_completion(), 1)});
    if (flex.acceptance() < fixed.acceptance()) dominance_held = false;

    const std::string suffix = "load" + std::to_string(static_cast<int>(load));
    harness.note("accept_fixed_" + suffix, fixed.acceptance());
    harness.note("accept_malleable_" + suffix, flex.acceptance());
    harness.note("mct_fixed_" + suffix, fixed.mean_completion());
    harness.note("mct_malleable_" + suffix, flex.mean_completion());
    harness.note("shaped_" + suffix, static_cast<double>(flex.shaped));
    // Gated keys (lower is better, deterministic in seed): the malleable
    // rejection fraction, and its completion time relative to fixed.
    harness.note("ratio_malleable_reject_" + suffix, flex.rejection());
    harness.note("ratio_mct_malleable_vs_fixed_" + suffix,
                 fixed.mean_completion() > 0.0
                     ? flex.mean_completion() / fixed.mean_completion()
                     : 1.0);
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "Reading: at every overload level the malleable scheduler admits at\n"
      "least what fixed-window admission does -- the flat shape is always\n"
      "among its candidates -- and converts calendar fragmentation into\n"
      "extra admissions via shaping, defragmentation, and detour routing.\n"
      "Accepted volumes also tend to *finish sooner* than their nominal\n"
      "deadline: greedy earliest-fill grabs high-rate slack up front.\n");

  if (!dominance_held) {
    std::fprintf(stderr,
                 "FAIL: malleable acceptance fell below fixed-window at some "
                 "load -- the dominance invariant is broken\n");
    return 1;
  }
  return 0;
}
