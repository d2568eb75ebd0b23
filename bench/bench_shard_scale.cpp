// Shard-scale exhibit: the federation workload through ShardedSimulation
// at 1/2/4/8 executor lanes.
//
// Reports wall-clock events/sec and speedup versus the shards=1 serial
// reference, cross-checks that every lane count produced the
// byte-identical digest, and publishes machine-independent ratio_* keys
// (work per transfer, barrier density, lookahead-stall fraction, heap
// allocations per event of the serial run, digest mismatches) for
// gridvc-perf-gate. Wall-clock numbers are noted but never gated: they
// depend on the host. So are the minor page faults per thousand events
// of the last shards=1 run (minor_faults_per_kilo_event): the kernel
// decides how many faults a run takes, so CI bounds the key on a run of
// its own (--lanes 1,1, whose second run starts with warm heap pages)
// instead of gating it against the baseline.
//
//   --quick   CI-sized run (the checked-in baseline is generated from it)
//   --full    24 sites x 48 hosts, 1.05M users, 10 files each = 10.5M
//             transfers; the scale point EXPERIMENTS.md records
//   --users N       the run's user count instead of the preset's
//   --lanes A,B,..  lane counts to run, in order (default 1,2,4,8); a
//                   count above the domain count runs one lane per domain
//
// --users and every --lanes element must be whole counts >= 1; anything
// else exits 2 naming the flag.
//
// Default is --quick so a casual invocation finishes in seconds.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "heap_counter.hpp"
#include "shard/sharded_simulation.hpp"
#include "workload/federation.hpp"

namespace {

using gridvc::bench::Harness;
using gridvc::shard::ShardedSimulation;
using gridvc::workload::FederationConfig;

struct LaneResult {
  unsigned lanes = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double speedup = 0.0;
  double stall_fraction = 0.0;
  std::string digest;
};

/// Minor page faults the process has taken so far.
long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

FederationConfig quick_config() {
  FederationConfig config;
  config.sites = 10;
  config.hosts_per_site = 2;
  config.users = 400;
  config.transfers_per_user = 2;
  config.file_size = 16ULL << 20;
  config.arrival_horizon = 120.0;
  config.think_time = 2.0;
  config.remote_fraction = 0.5;
  config.vc_fraction = 0.4;
  return config;
}

FederationConfig full_config() {
  FederationConfig config;
  config.sites = 24;
  config.hosts_per_site = 48;
  config.users = 1'050'000;
  config.transfers_per_user = 10;
  config.file_size = 32ULL << 20;
  // The fluid data plane's recompute cost grows with *concurrent* flows,
  // so the million-user run spreads arrivals instead of stacking them:
  // ~52 user-sessions/s against 1,152 hosts keeps per-domain flow counts
  // in the regime the paper's DTN sites actually operate in (tens of
  // concurrent transfers per site), not a thundering herd.
  config.arrival_horizon = 20000.0;
  config.think_time = 1.0;
  config.remote_fraction = 0.4;
  config.vc_fraction = 0.25;
  config.host_concurrency = 4;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Harness harness(argc, argv, "shard_scale");

  bool full = false;
  std::uint64_t user_override = 0;  // --users N scales a run up or down
  std::vector<unsigned> lane_counts = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--quick") == 0) full = false;
    if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      user_override = gridvc::parse_flag_positive("--users", argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      // Comma-separated lane counts, e.g. --lanes 1,4 to trim a full run.
      // Every element must be a count >= 1, so an empty list is refused.
      lane_counts.clear();
      const std::string_view list = argv[i + 1];
      for (std::size_t begin = 0;;) {
        const std::size_t comma = list.find(',', begin);
        lane_counts.push_back(static_cast<unsigned>(gridvc::parse_flag_positive(
            "--lanes", list.substr(begin, comma - begin),
            std::numeric_limits<unsigned>::max())));
        if (comma == std::string_view::npos) break;
        begin = comma + 1;
      }
    }
  }

  FederationConfig config = full ? full_config() : quick_config();
  if (user_override > 0) config.users = user_override;
  const auto scenario = gridvc::workload::build_federation(config, gridvc::bench::kSeed);
  const double transfers = static_cast<double>(scenario.total_transfers());

  gridvc::bench::print_exhibit_header(
      full ? "shard scale (full: 10.5M transfers)" : "shard scale (quick)",
      "sharded federation, conservative lookahead (no paper analogue)");
  std::printf("  sites %zu  hosts/site %zu  users %" PRIu64 "  transfers %.0f\n\n",
              config.sites, config.hosts_per_site, config.users, transfers);

  std::vector<LaneResult> results;
  gridvc::shard::ShardStats serial_stats;
  std::uint64_t serial_allocs = 0;
  double serial_faults_per_kilo_event = -1.0;  // no shards=1 run yet
  for (const unsigned lanes : lane_counts) {
    ShardedSimulation sim(scenario, lanes);
    const std::uint64_t allocs_before = gridvc::bench::heap_allocs();
    const long faults_before = minor_faults();
    const auto t0 = std::chrono::steady_clock::now();
    sim.run();
    const auto t1 = std::chrono::steady_clock::now();
    const long faults = minor_faults() - faults_before;
    if (results.empty()) {
      serial_allocs = gridvc::bench::heap_allocs() - allocs_before;
    }
    if (sim.shards() == 1) {
      serial_faults_per_kilo_event = static_cast<double>(faults) * 1000.0 /
                                     static_cast<double>(sim.stats().events_dispatched);
    }

    LaneResult r;
    r.lanes = sim.shards();  // never more lanes than domains
    r.wall_s = std::chrono::duration<double>(t1 - t0).count();
    r.events_per_sec =
        static_cast<double>(sim.stats().events_dispatched) / (r.wall_s > 0 ? r.wall_s : 1e-9);
    r.stall_fraction = sim.stats().stall_fraction();
    r.digest = sim.digest();
    // Stats are lane-invariant (that is the whole point); keep the first
    // run's copy for the ratio keys.
    if (results.empty()) serial_stats = sim.stats();
    r.speedup = results.empty() ? 1.0 : results.front().wall_s / r.wall_s;
    results.push_back(r);

    std::printf("  shards %u:  wall %8.3f s   %12.0f events/s   speedup %5.2fx   stall %.3f\n",
                r.lanes, r.wall_s, r.events_per_sec, r.speedup, r.stall_fraction);
    std::fflush(stdout);  // full runs take minutes per lane count
    if (!sim.violations().empty()) {
      std::fprintf(stderr, "shards %u: %zu invariant violations\n", r.lanes,
                   sim.violations().size());
      return 1;
    }
  }

  std::size_t digest_mismatches = 0;
  for (const auto& r : results) {
    if (r.digest != results.front().digest) ++digest_mismatches;
  }
  std::printf("\n  digest: %s\n", results.front().digest.c_str());
  if (digest_mismatches > 0) {
    std::fprintf(stderr, "%zu lane counts diverged from the shards=1 digest\n",
                 digest_mismatches);
    for (const auto& r : results) {
      std::fprintf(stderr, "  shards %u: %s\n", r.lanes, r.digest.c_str());
    }
  }

  // Host-dependent observations (reported, never gated).
  for (const auto& r : results) {
    const std::string tag = std::to_string(r.lanes);
    harness.note("wall_s_shards" + tag, r.wall_s);
    harness.note("events_per_sec_shards" + tag, r.events_per_sec);
    harness.note("speedup_shards" + tag, r.speedup);
  }
  harness.note("transfers", transfers);
  harness.note("domains", static_cast<double>(scenario.sites.size()));
  harness.note("barriers", static_cast<double>(serial_stats.barriers));
  harness.note("messages", static_cast<double>(serial_stats.messages));
  harness.note("peak_open_sessions", static_cast<double>(serial_stats.peak_open_sessions));
  if (serial_faults_per_kilo_event >= 0.0) {
    harness.note("minor_faults_per_kilo_event", serial_faults_per_kilo_event);
  }

  // Machine-independent gate keys: per-transfer work and protocol density
  // are pure functions of (config, seed), so any drift is an algorithmic
  // change, not host noise. digest_mismatches must stay exactly zero.
  harness.note("ratio_events_per_transfer",
               static_cast<double>(serial_stats.events_dispatched) / transfers);
  harness.note("ratio_messages_per_transfer",
               static_cast<double>(serial_stats.messages) / transfers);
  harness.note("ratio_barriers_per_kilo_transfer",
               static_cast<double>(serial_stats.barriers) / transfers * 1000.0);
  harness.note("ratio_lookahead_stall_fraction", serial_stats.stall_fraction());
  // Heap allocations inside the first run's run(), set-up excluded, per
  // dispatched event. By default that run is the serial shards=1 one.
  harness.note("ratio_allocs_per_event",
               static_cast<double>(serial_allocs) /
                   static_cast<double>(serial_stats.events_dispatched));
  harness.note("ratio_digest_mismatches", static_cast<double>(digest_mismatches));

  return digest_mismatches == 0 ? 0 : 1;
}
