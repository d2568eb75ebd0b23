// Micro-benchmarks of the hot substrate operations (google-benchmark):
// the max-min allocator, session grouping, the bandwidth calendar, the
// TCP model, trace synthesis throughput, and the simulator/network
// scheduling path under heavy flow concurrency.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/session_grouping.hpp"
#include "bench_common.hpp"
#include "heap_counter.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "gridftp/transfer_engine.hpp"
#include "gridftp/usage_stats.hpp"
#include "net/fair_share.hpp"
#include "net/network.hpp"
#include "net/tcp_model.hpp"
#include "obs/profile_io.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "vc/bandwidth_calendar.hpp"
#include "workload/profiles.hpp"
#include "workload/synth.hpp"
#include "workload/testbed.hpp"

namespace {

using namespace gridvc;

void BM_MaxMinAllocate(benchmark::State& state) {
  const auto tb = workload::build_esnet_testbed();
  Rng rng(1);
  std::vector<net::FlowDemand> flows;
  const net::NodeId hosts[] = {tb.ncar, tb.nics, tb.slac, tb.bnl, tb.nersc, tb.ornl,
                               tb.anl};
  for (int i = 0; i < state.range(0); ++i) {
    net::NodeId a = hosts[rng.uniform_int(0, 6)];
    net::NodeId b;
    do {
      b = hosts[rng.uniform_int(0, 6)];
    } while (a == b);
    net::FlowDemand d;
    d.path = *net::shortest_path(tb.topo, a, b);
    d.cap = rng.bernoulli(0.5) ? mbps(rng.uniform(100.0, 4000.0)) : 0.0;
    flows.push_back(std::move(d));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::max_min_allocate(tb.topo, flows));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MaxMinAllocate)->Arg(8)->Arg(64)->Arg(256);

void BM_SessionGrouping(benchmark::State& state) {
  auto profile = workload::slac_bnl_profile(
      static_cast<double>(state.range(0)) / 1021999.0);
  const auto log = workload::synthesize_trace(profile, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::group_sessions(log, {.gap = 60.0}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_SessionGrouping)->Arg(10000)->Arg(100000);

void BM_CalendarBookRelease(benchmark::State& state) {
  const auto tb = workload::build_esnet_testbed();
  vc::BandwidthCalendar cal(tb.topo);
  const auto path = *net::shortest_path(tb.topo, tb.nersc, tb.ornl);
  Rng rng(5);
  for (auto _ : state) {
    const double t0 = rng.uniform(0.0, 1e6);
    const double t1 = t0 + rng.uniform(60.0, 3600.0);
    if (cal.fits(path, t0, t1, mbps(500))) {
      const auto id = cal.book(path, t0, t1, mbps(500));
      cal.release(id);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalendarBookRelease);

void BM_TcpTransferDuration(benchmark::State& state) {
  net::TcpConfig cfg;
  cfg.ssthresh_per_stream = 192 * KiB;
  cfg.ca_mss_per_rtt = 4.0;
  const net::TcpModel tcp(cfg);
  Rng rng(7);
  for (auto _ : state) {
    const Bytes size = static_cast<Bytes>(rng.uniform(1e5, 4e9));
    benchmark::DoNotOptimize(
        tcp.transfer_duration(size, 8, 0.08, mbps(rng.uniform(10.0, 2000.0))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpTransferDuration);

void BM_TraceSynthesis(benchmark::State& state) {
  auto profile = workload::slac_bnl_profile(
      static_cast<double>(state.range(0)) / 1021999.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::synthesize_trace(profile, 9));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(profile.target_transfers));
}
BENCHMARK(BM_TraceSynthesis)->Arg(10000)->Arg(100000);

// Concurrency-heavy scheduling scenario: hundreds of long, overlapping,
// cap-limited flows on the NERSC-ANL path. This is the regime where the
// incremental recompute pays off — an arrival or completion leaves most
// other flows' rates untouched, so their completion events must not be
// cancelled and re-pushed. The counters report event churn per completed
// flow; wall time is the google-benchmark measurement.
void BM_NetworkConcurrentFlows(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto tb = workload::build_esnet_testbed();
  const net::Path path = tb.path(tb.nersc, tb.anl);
  std::uint64_t scheduled = 0, cancelled = 0, recomputes = 0, completed = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network network(sim, tb.topo);
    Rng rng(bench::kSeed);
    std::uint64_t done = 0;
    for (int i = 0; i < n; ++i) {
      // Arrivals over one minute; 0.5-2 GB at a 10-25 Mbps cap keeps each
      // flow alive for minutes, so essentially all n flows overlap while
      // total demand stays below the 10 Gbps backbone.
      const Seconds at = rng.uniform(0.0, 60.0);
      const Bytes size = static_cast<Bytes>(rng.uniform(5e8, 2e9));
      net::FlowOptions opts;
      opts.cap = mbps(rng.uniform(10.0, 25.0));
      sim.schedule_at(at, [&network, &done, &path, size, opts] {
        network.start_flow(path, size, opts,
                           [&done](const net::FlowRecord&) { ++done; });
      });
    }
    sim.run();
    const bench::ObsDeltas d = bench::read_obs_deltas(sim);
    scheduled += static_cast<std::uint64_t>(d.scheduled);
    cancelled += static_cast<std::uint64_t>(d.cancelled);
    recomputes += static_cast<std::uint64_t>(d.recomputes);
    completed += done;
  }
  state.counters["sched_per_flow"] =
      static_cast<double>(scheduled) / static_cast<double>(completed);
  state.counters["cancel_per_flow"] =
      static_cast<double>(cancelled) / static_cast<double>(completed);
  state.counters["recompute_per_flow"] =
      static_cast<double>(recomputes) / static_cast<double>(completed);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NetworkConcurrentFlows)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

// The same regime through the full GridFTP engine: server shares shrink
// and grow as transfers register/deregister, so every submit/finish pushes
// refreshed caps into the network — the recompute storm the incremental
// diff exists to absorb.
// `traced` attaches a ring-buffer trace sink, measuring the
// observability overhead against the untraced run (the acceptance bar is
// <5%; compiling with GRIDVC_OBS_NO_TRACE removes even the null-pointer
// branch and is the true no-op baseline).
void run_engine_concurrent(benchmark::State& state, bool traced) {
  const int n = static_cast<int>(state.range(0));
  const auto tb = workload::build_esnet_testbed();
  bench::ObsDeltas deltas;
  std::uint64_t completed = 0;
  std::uint64_t trace_events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    obs::RingBufferTraceSink ring(1024);
    if (traced) sim.obs().set_trace_sink(&ring);
    net::Network network(sim, tb.topo);
    gridftp::ServerConfig sc;
    sc.nic_rate = gbps(10);
    sc.pool_size = 4;
    sc.name = "nersc-dtn";
    gridftp::Server src(sc);
    sc.name = "anl-dtn";
    gridftp::Server dst(sc);
    gridftp::UsageStatsCollector collector;
    gridftp::TransferEngineConfig cfg;
    cfg.server_noise_sigma = 0.25;
    gridftp::TransferEngine engine(network, collector, cfg, Rng(bench::kSeed));
    gridftp::TransferSpec proto;
    proto.src = {&src, gridftp::IoMode::kMemory};
    proto.dst = {&dst, gridftp::IoMode::kMemory};
    proto.path = tb.path(tb.nersc, tb.anl);
    proto.rtt = tb.rtt(tb.nersc, tb.anl);
    proto.streams = 4;
    proto.remote_host = "anl";
    Rng rng(bench::kSeed ^ 1);
    for (int i = 0; i < n; ++i) {
      gridftp::TransferSpec s = proto;
      const Seconds at = rng.uniform(0.0, 120.0);
      s.size = static_cast<Bytes>(rng.uniform(1e8, 4e9));
      s.stripes = static_cast<int>(rng.uniform_int(1, 4));
      sim.schedule_at(at, [&engine, s] { engine.submit(s); });
    }
    sim.run();
    const bench::ObsDeltas d = bench::read_obs_deltas(sim);
    deltas.scheduled += d.scheduled;
    deltas.cancelled += d.cancelled;
    deltas.recomputes += d.recomputes;
    deltas.rate_changes += d.rate_changes;
    completed += engine.stats().completed;
    trace_events += ring.total_emitted();
  }
  const double done = static_cast<double>(completed);
  state.counters["sched_per_flow"] = deltas.scheduled / done;
  state.counters["cancel_per_flow"] = deltas.cancelled / done;
  state.counters["recompute_per_flow"] = deltas.recomputes / done;
  state.counters["rate_chg_per_flow"] = deltas.rate_changes / done;
  if (traced) {
    state.counters["trace_ev_per_flow"] = static_cast<double>(trace_events) / done;
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_EngineConcurrentTransfers(benchmark::State& state) {
  run_engine_concurrent(state, /*traced=*/false);
}
BENCHMARK(BM_EngineConcurrentTransfers)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_EngineConcurrentTransfersTraced(benchmark::State& state) {
  run_engine_concurrent(state, /*traced=*/true);
}
BENCHMARK(BM_EngineConcurrentTransfersTraced)
    ->Arg(100)
    ->Arg(300)
    ->Unit(benchmark::kMillisecond);


// Steady-state allocator hot path: caller-owned workspace, borrowed
// paths. The heap counter must read zero per call once the workspace is
// warm — that is the whole point of the FlowDemandRef/AllocWorkspace API.
void BM_MaxMinAllocateWorkspace(benchmark::State& state) {
  const auto tb = workload::build_esnet_testbed();
  Rng rng(1);
  std::vector<net::Path> paths;
  std::vector<net::FlowDemandRef> demands;
  const net::NodeId hosts[] = {tb.ncar, tb.nics, tb.slac, tb.bnl, tb.nersc, tb.ornl,
                               tb.anl};
  for (int i = 0; i < state.range(0); ++i) {
    net::NodeId a = hosts[rng.uniform_int(0, 6)];
    net::NodeId b;
    do {
      b = hosts[rng.uniform_int(0, 6)];
    } while (a == b);
    paths.push_back(*net::shortest_path(tb.topo, a, b));
  }
  for (const auto& p : paths) {
    net::FlowDemandRef d;
    d.path = &p;
    d.cap = rng.bernoulli(0.5) ? mbps(rng.uniform(100.0, 4000.0)) : 0.0;
    demands.push_back(d);
  }
  const std::vector<char> link_up(tb.topo.link_count(), 1);
  net::AllocWorkspace ws;
  // Warm-up: first call sizes the workspace vectors.
  benchmark::DoNotOptimize(net::max_min_allocate(tb.topo, demands, link_up, ws));
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = bench::heap_allocs();
    benchmark::DoNotOptimize(net::max_min_allocate(tb.topo, demands, link_up, ws));
    allocs += bench::heap_allocs() - before;
  }
  state.counters["heap_allocs_per_call"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MaxMinAllocateWorkspace)->Arg(64)->Arg(256);

// The federation-serial shape: one domain world (48 hosts behind an edge
// router and its border, 98 links) carrying 2-4 flows. The per-link work
// must follow the few links the flows cross, and the used-link
// bookkeeping must stay allocation-free while those links change from
// call to call (16 flow sets, cycled).
void BM_MaxMinAllocateWorkspaceSparse(benchmark::State& state) {
  net::Topology topo;
  const net::NodeId edge = topo.add_node("edge", net::NodeKind::kRouter);
  const net::NodeId border = topo.add_node("bdr", net::NodeKind::kRouter);
  const auto [edge_up, edge_down] = topo.add_duplex_link(edge, border, gbps(100), 0.001);
  std::vector<net::LinkId> host_up, host_down;
  for (int h = 0; h < 48; ++h) {
    const net::NodeId host = topo.add_node("h" + std::to_string(h), net::NodeKind::kHost);
    const auto [up, down] = topo.add_duplex_link(host, edge, gbps(10), 0.0001);
    host_up.push_back(up);
    host_down.push_back(down);
  }
  Rng rng(1);
  const auto host = [&] { return static_cast<std::size_t>(rng.uniform_int(0, 47)); };
  std::vector<std::vector<net::Path>> paths(16);
  std::vector<std::vector<net::FlowDemandRef>> sets(paths.size());
  for (std::size_t k = 0; k < paths.size(); ++k) {
    for (int i = 0; i < state.range(0); ++i) {
      switch (rng.uniform_int(0, 2)) {
        case 0: paths[k].push_back({host_up[host()], edge_up}); break;      // outbound
        case 1: paths[k].push_back({edge_down, host_down[host()]}); break;  // inbound
        default: paths[k].push_back({host_up[host()], host_down[host()]});  // local
      }
    }
    for (const auto& p : paths[k]) {
      net::FlowDemandRef d;
      d.path = &p;
      d.cap = rng.bernoulli(0.5) ? mbps(rng.uniform(100.0, 4000.0)) : 0.0;
      d.guarantee = rng.bernoulli(0.2) ? mbps(rng.uniform(100.0, 1000.0)) : 0.0;
      sets[k].push_back(d);
    }
  }
  const std::vector<char> link_up(topo.link_count(), 1);
  net::AllocWorkspace ws;
  // Warm-up: one pass over every set sizes the workspace vectors.
  for (const auto& set : sets) {
    benchmark::DoNotOptimize(net::max_min_allocate(topo, set, link_up, ws));
  }
  std::uint64_t allocs = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& set = sets[next++ % sets.size()];
    const std::uint64_t before = bench::heap_allocs();
    benchmark::DoNotOptimize(net::max_min_allocate(topo, set, link_up, ws));
    allocs += bench::heap_allocs() - before;
  }
  state.counters["heap_allocs_per_call"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MaxMinAllocateWorkspaceSparse)->Arg(2)->Arg(4);

// Synthesis throughput across execution-pool widths. On a multicore
// machine transfers/s should scale with the Arg; the output is
// byte-identical at every width (pinned by test_exec).
void BM_SynthThroughput(benchmark::State& state) {
  exec::set_default_threads(static_cast<unsigned>(state.range(0)));
  const auto profile = workload::slac_bnl_profile(20000.0 / 1021999.0);
  for (auto _ : state) {
    const auto log = workload::synthesize_trace(profile, 9);
    benchmark::DoNotOptimize(log.data());
  }
  state.counters["threads"] = static_cast<double>(exec::default_threads());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(profile.target_transfers));
  exec::set_default_threads(0);
}
BENCHMARK(BM_SynthThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Calendar point/window queries against a populated profile: these are
// the binary-search paths the prefix-level cache exists for.
void BM_CalendarPeakQuery(benchmark::State& state) {
  const auto tb = workload::build_esnet_testbed();
  vc::BandwidthCalendar cal(tb.topo);
  const auto path = *net::shortest_path(tb.topo, tb.nersc, tb.ornl);
  Rng rng(11);
  for (int i = 0; i < state.range(0); ++i) {
    const double t0 = rng.uniform(0.0, 1e6);
    const double t1 = t0 + rng.uniform(60.0, 3600.0);
    if (cal.fits(path, t0, t1, mbps(40))) cal.book(path, t0, t1, mbps(40));
  }
  const net::LinkId link = path.front();
  for (auto _ : state) {
    const double t0 = rng.uniform(0.0, 1e6);
    benchmark::DoNotOptimize(cal.available(link, t0, t0 + 600.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalendarPeakQuery)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// Scale curves (--scale): hand-rolled timing sweeps of the calendar and
// max-min hot paths across reservation/flow counts, emitted as
// BENCH_perf_scale.json and gated in CI by gridvc-perf-gate against the
// checked-in baseline. Unlike the google-benchmark microbenches above,
// these measure the *growth* of µs/op with structure size — the curve
// that distinguishes the O(log n) calendar from a linear rebuild.

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScaleReport {
  std::vector<std::pair<std::string, double>> counters;
  void note(const std::string& key, double value) { counters.emplace_back(key, value); }
  double get(const std::string& key) const {
    for (const auto& [k, v] : counters) {
      if (k == key) return v;
    }
    return 0.0;
  }
};

// Steady-state calendar churn at `n` live reservations: book one, release
// a random one, so the structure size stays pinned while we time the
// admit/free pair. A separate pass times windowed availability queries.
void scale_calendar(std::size_t n, ScaleReport& report) {
  net::Topology topo;
  const net::NodeId a = topo.add_node("a", net::NodeKind::kHost);
  const net::NodeId b = topo.add_node("b", net::NodeKind::kHost);
  // Capacity far above the expected reserved peak: we are timing the
  // structure, not admission rejects.
  const net::LinkId link = topo.add_link(a, b, gbps(100000), 0.001);
  vc::BandwidthCalendar cal(topo);
  const net::Path path{link};
  Rng rng(bench::kSeed ^ n);
  auto draw_window = [&rng](double& t0, double& t1) {
    t0 = rng.uniform(0.0, 1e6);
    t1 = t0 + rng.uniform(60.0, 3600.0);
  };
  std::vector<vc::ReservationId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double t0, t1;
    draw_window(t0, t1);
    ids.push_back(cal.book(path, t0, t1, mbps(rng.uniform(1.0, 100.0))));
  }
  // Best of several repetitions: the curve is a property of the data
  // structure, and the minimum is the measurement least polluted by
  // whatever else the machine was doing.
  const std::size_t ops = 20000;
  const int reps = 5;
  double admit_free_us = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double start = now_us();
    for (std::size_t i = 0; i < ops; ++i) {
      double t0, t1;
      draw_window(t0, t1);
      const auto id = cal.book(path, t0, t1, mbps(rng.uniform(1.0, 100.0)));
      const std::size_t victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      cal.release(ids[victim]);
      ids[victim] = id;
    }
    admit_free_us = std::min(admit_free_us,
                             (now_us() - start) / (2.0 * static_cast<double>(ops)));
  }

  const std::size_t queries = 50000;
  double sink = 0.0;
  double query_us = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double qstart = now_us();
    for (std::size_t i = 0; i < queries; ++i) {
      const double t0 = rng.uniform(0.0, 1e6);
      sink += cal.available(link, t0, t0 + 600.0);
    }
    query_us = std::min(query_us, (now_us() - qstart) / static_cast<double>(queries));
  }
  benchmark::DoNotOptimize(sink);

  const std::string suffix = "_n" + std::to_string(n);
  report.note("calendar_admit_free_us" + suffix, admit_free_us);
  report.note("calendar_query_us" + suffix, query_us);
  std::printf("  calendar  n=%8zu   admit+free %8.3f us/op   query %8.3f us/op\n", n,
              admit_free_us, query_us);
}

// Full max-min recompute at `n` concurrent flows on the ESnet testbed.
// Paths are memoized per host pair (42 pairs), mirroring how the Network
// borrows stable path storage per flow.
void scale_maxmin(std::size_t n, ScaleReport& report) {
  const auto tb = workload::build_esnet_testbed();
  const net::NodeId hosts[] = {tb.ncar, tb.nics, tb.slac, tb.bnl, tb.nersc, tb.ornl,
                               tb.anl};
  std::vector<net::Path> pair_paths;
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 7; ++j) {
      if (i == j) continue;
      pairs.emplace_back(i, j);
      pair_paths.push_back(*net::shortest_path(tb.topo, hosts[i], hosts[j]));
    }
  }
  Rng rng(bench::kSeed ^ (n * 31));
  std::vector<net::FlowDemandRef> demands;
  demands.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::FlowDemandRef d;
    d.path = &pair_paths[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pair_paths.size()) - 1))];
    d.cap = rng.bernoulli(0.5) ? mbps(rng.uniform(100.0, 4000.0)) : 0.0;
    demands.push_back(d);
  }
  const std::vector<char> link_up(tb.topo.link_count(), 1);
  net::AllocWorkspace ws;
  benchmark::DoNotOptimize(net::max_min_allocate(tb.topo, demands, link_up, ws));
  // Best of several repetition blocks (see scale_calendar).
  const std::size_t calls = std::max<std::size_t>(2, 1000000 / n);
  double per_call_us = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 3; ++r) {
    const double start = now_us();
    for (std::size_t c = 0; c < calls; ++c) {
      benchmark::DoNotOptimize(net::max_min_allocate(tb.topo, demands, link_up, ws));
    }
    per_call_us = std::min(per_call_us, (now_us() - start) / static_cast<double>(calls));
  }
  const double per_flow_us = per_call_us / static_cast<double>(n);
  const std::string suffix = "_n" + std::to_string(n);
  report.note("maxmin_recompute_us" + suffix, per_call_us);
  report.note("maxmin_us_per_flow" + suffix, per_flow_us);
  std::printf("  maxmin    n=%8zu   recompute %10.1f us/call   %8.4f us/flow\n", n,
              per_call_us, per_flow_us);
}

int run_scale(bool full, const std::string& json_path) {
  std::vector<std::size_t> sizes{1000, 10000, 100000};
  if (full) sizes.push_back(1000000);
  std::printf("perf_scale: calendar admit/free/query and max-min recompute curves\n");
  ScaleReport report;
  const double wall_start = now_us();
  for (const std::size_t n : sizes) scale_calendar(n, report);
  for (const std::size_t n : sizes) scale_maxmin(n, report);

  // Scaling ratios from 10k up to the largest size measured: the gated
  // signal. An O(log n) admit/free grows ~1.5x from 10k to 1M; a linear
  // rebuild grows ~100x. Per-flow max-min cost should stay flat.
  const std::size_t top = sizes.back();
  const auto ratio = [&](const std::string& stem) {
    const double at_10k = report.get(stem + "_n10000");
    const double at_top = report.get(stem + "_n" + std::to_string(top));
    return at_10k > 0.0 ? at_top / at_10k : 0.0;
  };
  report.note("ratio_calendar_admit_free_10k_to_top", ratio("calendar_admit_free_us"));
  report.note("ratio_calendar_query_10k_to_top", ratio("calendar_query_us"));
  report.note("ratio_maxmin_us_per_flow_10k_to_top", ratio("maxmin_us_per_flow"));
  report.note("scale_top_n", static_cast<double>(top));
  std::printf("  ratios (10k -> %zu): admit+free %.2fx  query %.2fx  maxmin/flow %.2fx\n",
              top, report.get("ratio_calendar_admit_free_10k_to_top"),
              report.get("ratio_calendar_query_10k_to_top"),
              report.get("ratio_maxmin_us_per_flow_10k_to_top"));

  const double wall = (now_us() - wall_start) / 1e6;
  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "perf_scale: cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"exhibit\": \"perf_scale\",\n  \"wall_seconds\": " << wall
      << ",\n  \"counters\": {";
  for (std::size_t i = 0; i < report.counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << report.counters[i].first
        << "\": " << report.counters[i].second;
  }
  out << "\n  }\n}\n";
  std::printf("perf_scale: wrote %s\n", json_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Profiler overhead gate (--prof-gate): the same instrumented workload
// timed with the zone profiler disabled and enabled, interleaved
// best-of-reps so machine noise hits both sides equally. The CI
// acceptance bar is <5% wall-clock overhead enabled; disabled, a zone is
// one relaxed atomic load.

constexpr double kProfGateLimit = 1.05;

// Calendar churn, trace synthesis, and a full engine run: touches every
// GRIDVC_PROF_ZONE on the simulation hot path (sim dispatch, net
// recompute/max-min, calendar book/release, engine phases) mixed with
// the un-instrumented compute the full suite also spends time in, so
// the ratio reflects a representative workload rather than a pure
// zone-entry stress loop.
void prof_gate_workload() {
  const auto tb = workload::build_esnet_testbed();
  Rng rng(bench::kSeed ^ 77);
  {
    const auto profile = workload::slac_bnl_profile(20000.0 / 1021999.0);
    const auto log = workload::synthesize_trace(profile, 9);
    benchmark::DoNotOptimize(log.data());
  }
  {
    vc::BandwidthCalendar cal(tb.topo);
    const auto path = *net::shortest_path(tb.topo, tb.nersc, tb.ornl);
    std::vector<vc::ReservationId> ids;
    for (int i = 0; i < 20000; ++i) {
      const double t0 = rng.uniform(0.0, 1e6);
      const double t1 = t0 + rng.uniform(60.0, 3600.0);
      if (!cal.fits(path, t0, t1, mbps(40))) continue;
      ids.push_back(cal.book(path, t0, t1, mbps(40)));
      if (ids.size() > 512) {
        cal.release(ids.back());
        ids.pop_back();
      }
    }
    for (const auto id : ids) cal.release(id);
  }

  sim::Simulator sim;
  net::Network network(sim, tb.topo);
  gridftp::ServerConfig sc;
  sc.nic_rate = gbps(10);
  sc.pool_size = 4;
  sc.name = "nersc-dtn";
  gridftp::Server src(sc);
  sc.name = "anl-dtn";
  gridftp::Server dst(sc);
  gridftp::UsageStatsCollector collector;
  gridftp::TransferEngineConfig cfg;
  cfg.server_noise_sigma = 0.25;
  gridftp::TransferEngine engine(network, collector, cfg, Rng(bench::kSeed));
  gridftp::TransferSpec proto;
  proto.src = {&src, gridftp::IoMode::kMemory};
  proto.dst = {&dst, gridftp::IoMode::kMemory};
  proto.path = tb.path(tb.nersc, tb.anl);
  proto.rtt = tb.rtt(tb.nersc, tb.anl);
  proto.streams = 4;
  proto.remote_host = "anl";
  for (int i = 0; i < 150; ++i) {
    gridftp::TransferSpec s = proto;
    const Seconds at = rng.uniform(0.0, 120.0);
    s.size = static_cast<Bytes>(rng.uniform(1e8, 4e9));
    s.stripes = static_cast<int>(rng.uniform_int(1, 4));
    sim.schedule_at(at, [&engine, s] { engine.submit(s); });
  }
  sim.run();
  benchmark::DoNotOptimize(engine.stats().completed);
}

int run_prof_gate() {
#ifdef GRIDVC_PROF_DISABLED
  std::printf("prof_gate: zones compiled out (GRIDVC_PROFILING=OFF); nothing to gate\n");
  return 0;
#else
  prof_gate_workload();  // warm-up: fault in code paths and testbed data
  const int reps = 5;
  double best_off = std::numeric_limits<double>::infinity();
  double best_on = best_off;
  for (int r = 0; r < reps; ++r) {
    obs::Profiler::disable();
    double start = now_us();
    prof_gate_workload();
    best_off = std::min(best_off, now_us() - start);

    obs::Profiler::enable();
    start = now_us();
    prof_gate_workload();
    best_on = std::min(best_on, now_us() - start);
    obs::Profiler::disable();
  }
  (void)obs::Profiler::collect();  // drain the per-thread sample rings
  const double ratio = best_on / best_off;
  std::printf("prof_gate: disabled %.1f ms  enabled %.1f ms  ratio %.4f (limit %.2f)\n",
              best_off / 1e3, best_on / 1e3, ratio, kProfGateLimit);
  if (ratio > kProfGateLimit) {
    std::fprintf(stderr, "prof_gate: profiling overhead %.1f%% exceeds %.0f%%\n",
                 (ratio - 1.0) * 100.0, (kProfGateLimit - 1.0) * 100.0);
    return 1;
  }
  return 0;
#endif
}

}  // namespace

// Custom main: --quick caps google-benchmark's sampling time for CI
// smoke runs, --threads pins the execution pool (BM_SynthThroughput
// overrides it per-Arg), --scale [--scale-full] [--scale-out PATH]
// runs the calendar/max-min scale sweeps instead of google-benchmark,
// --prof-gate runs the profiler overhead check, and --profile-out
// enables the zone profiler for the whole run and writes a Chrome
// trace-event JSON profile; everything else passes through to benchmark.
int main(int argc, char** argv) {
  bool scale = false;
  bool scale_full = false;
  bool prof_gate = false;
  std::string scale_out = "BENCH_perf_scale.json";
  std::string profile_out;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc) + 1);
  passthrough.push_back(argv[0]);
  static char quick_flag[] = "--benchmark_min_time=0.05";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0) {
      scale = true;
    } else if (std::strcmp(argv[i], "--scale-full") == 0) {
      scale = true;
      scale_full = true;
    } else if (std::strcmp(argv[i], "--scale-out") == 0 && i + 1 < argc) {
      scale_out = argv[++i];
    } else if (std::strcmp(argv[i], "--prof-gate") == 0) {
      prof_gate = true;
    } else if (std::strcmp(argv[i], "--profile-out") == 0 && i + 1 < argc) {
      profile_out = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      passthrough.push_back(quick_flag);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      gridvc::exec::set_default_threads(
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10)));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (prof_gate) return run_prof_gate();
  gridvc::obs::ProfileScope profile;
  if (!profile_out.empty()) profile.arm(profile_out);
  if (scale) return run_scale(scale_full, scale_out);
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
