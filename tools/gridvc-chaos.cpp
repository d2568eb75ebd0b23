// gridvc-chaos: seeded chaos batteries over the full stack.
//
//   gridvc-chaos [--seed N] [--replications N] [--threads N]
//                [--tasks N] [--queue-limit N] [--tenants N (default 1)]
//                [--policy reject-new|shed-oldest|priority]
//                [--service-crash-at S] [--sabotage] [--shrink]
//                [--digest-out FILE] [--trace-out FILE.jsonl]
//                [--profile-out FILE.json] [--flight-out FILE.json]
//
// Each replication generates a fault schedule (link faults, server
// crashes, IDC outages) from its seed, replays it against the managed
// workload, and audits the cross-layer invariants (byte conservation,
// orphan circuits, unresolved aborts, gauge drain, trace/metrics
// consistency). Exit is nonzero when any replication violates an
// invariant.
//
// --digest-out writes one deterministic digest line per replication;
// runs with different --threads must produce byte-identical files
// (this is the determinism check CI performs).
//
// --sabotage flips the contract: a deliberate trace/metrics
// inconsistency is injected on every server-down window, so every
// replication that contains a server crash MUST fail — the tool exits
// nonzero if the harness misses it. Combine with --shrink to ddmin the
// first failing schedule down to a 1-minimal window set.
//
// --profile-out enables the zone profiler and writes a Chrome
// trace-event JSON profile (inspect via gridvc-profile). --flight-out
// arms the flight recorder: the first invariant violation (or
// crash_and_recover) dumps the recent trace-event/zone history to FILE.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "exec/thread_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profile_io.hpp"
#include "obs/trace.hpp"
#include "recovery/fault_schedule.hpp"
#include "shard/sharded_simulation.hpp"
#include "workload/chaos.hpp"
#include "workload/federation.hpp"

using namespace gridvc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--replications N] [--threads N]\n"
               "          [--tasks N] [--interarrival S] [--queue-limit N] [--tenants N]\n"
               "          [--policy reject-new|shed-oldest|priority]\n"
               "          [--service-crash-at S] [--malleable] [--sabotage] [--shrink]\n"
               "          [--digest-out FILE] [--trace-out FILE.jsonl]\n"
               "          [--profile-out FILE.json] [--flight-out FILE.json]\n"
               "  --replications     seeds seed..seed+N-1, run in parallel\n"
               "  --tenants          weighted front-end tenants (default 1), each\n"
               "                     queue bounded by --queue-limit under --policy\n"
               "  --service-crash-at crash + journal-recover the service at S\n"
               "  --malleable        request circuits as malleable (shaped\n"
               "                     volume-preserving profiles)\n"
               "  --sabotage         inject a known invariant violation; the\n"
               "                     run fails unless the harness catches it\n"
               "  --shrink           ddmin the first failing schedule\n"
               "  --digest-out       one digest line per replication (must be\n"
               "                     identical across --threads)\n"
               "  --trace-out        JSONL trace (single replication only)\n"
               "  --profile-out      zone profile as Chrome trace-event JSON\n"
               "  --flight-out       arm the flight recorder; invariant\n"
               "                     failures dump recent history to FILE\n"
               "  --shards N         run the sharded multi-domain federation\n"
               "                     battery on N executor lanes instead of the\n"
               "                     classic battery; digests are shard-count\n"
               "                     invariant (compare --shards 1 vs N files);\n"
               "                     takes only --seed/--replications/--tasks/\n"
               "                     --digest-out/--profile-out\n",
               argv0);
  return 2;
}

/// The flags the sharded federation battery honours.
const std::set<std::string> kShardFlags = {"--shards", "--seed", "--replications", "--tasks",
                                           "--digest-out", "--profile-out"};

const char* kind_name(recovery::FaultTargetKind kind) {
  switch (kind) {
    case recovery::FaultTargetKind::kLink: return "link";
    case recovery::FaultTargetKind::kServer: return "server";
    case recovery::FaultTargetKind::kIdc: return "idc";
  }
  return "?";
}

void print_schedule(const recovery::FaultSchedule& schedule) {
  for (const auto& w : schedule.windows) {
    std::printf("  %-6s target=%llu down=%.3f up=%.3f\n", kind_name(w.kind),
                static_cast<unsigned long long>(w.target), w.down_at, w.up_at);
  }
}

}  // namespace

int main(int argc, char** argv) {
  workload::ChaosConfig config;
  std::uint64_t seed = 1;
  std::size_t replications = 1;
  unsigned shards = 0;  // > 0 selects the sharded federation battery
  bool shrink = false;
  std::string digest_path, trace_path, profile_path, flight_path;
  std::vector<std::string> flags;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    flags.push_back(arg);
    if (arg == "--seed" && i + 1 < argc) {
      seed = parse_flag_count(arg, argv[++i]);
    } else if (arg == "--replications" && i + 1 < argc) {
      replications = parse_flag_count(arg, argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      exec::set_default_threads(parse_flag_count<unsigned>(arg, argv[++i]));
    } else if (arg == "--tasks" && i + 1 < argc) {
      config.task_count = parse_flag_count(arg, argv[++i]);
    } else if (arg == "--interarrival" && i + 1 < argc) {
      config.task_interarrival = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--tenants" && i + 1 < argc) {
      config.tenants = parse_flag_count(arg, argv[++i]);
    } else if (arg == "--queue-limit" && i + 1 < argc) {
      config.queue_limit = parse_flag_count(arg, argv[++i]);
    } else if (arg == "--policy" && i + 1 < argc) {
      const std::string policy = argv[++i];
      if (policy == "reject-new") {
        config.overload_policy = frontend::OverloadPolicy::kRejectNew;
      } else if (policy == "shed-oldest") {
        config.overload_policy = frontend::OverloadPolicy::kShedOldest;
      } else if (policy == "priority") {
        config.overload_policy = frontend::OverloadPolicy::kPriority;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--service-crash-at" && i + 1 < argc) {
      config.service_crash_at = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--malleable") {
      config.malleable_reservations = true;
    } else if (arg == "--sabotage") {
      config.sabotage = true;
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = parse_flag_count<unsigned>(arg, argv[++i]);
    } else if (arg == "--digest-out" && i + 1 < argc) {
      digest_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--profile-out" && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (arg == "--flight-out" && i + 1 < argc) {
      flight_path = argv[++i];
    } else {
      std::fprintf(stderr, "%s: unknown flag or missing value: %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    }
  }
  if (replications == 0 || config.tenants == 0) return usage(argv[0]);

  if (shards > 0) {
    for (const std::string& flag : flags) {
      if (kShardFlags.count(flag) == 0) {
        std::fprintf(stderr, "%s: the --shards federation battery does not honour %s\n",
                     argv[0], flag.c_str());
        return 2;
      }
    }
    // Sharded federation battery: one full multi-domain run per seed.
    // Every run must drain clean, and the digest file must be identical
    // whatever --shards was — CI diffs a --shards 1 file against a
    // --shards 4 file.
    obs::ProfileScope fed_profile;
    if (!profile_path.empty()) fed_profile.arm(profile_path);
    std::fprintf(stderr,
                 "sharded federation battery: %zu replication(s), seeds %llu..%llu, "
                 "%u shard lane(s)\n",
                 replications, static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(seed + replications - 1), shards);
    workload::FederationConfig fed;
    fed.sites = 8;
    fed.hosts_per_site = 2;
    fed.users = 96;
    fed.transfers_per_user = 2;
    fed.file_size = 8ULL << 20;
    fed.arrival_horizon = 60.0;
    fed.think_time = 2.0;
    fed.remote_fraction = 0.6;
    fed.vc_fraction = 0.4;
    if (config.task_count > 0) fed.users = config.task_count;
    std::size_t fed_failing = 0;
    std::vector<std::string> digests;
    for (std::size_t i = 0; i < replications; ++i) {
      const auto scenario = workload::build_federation(fed, seed + i);
      shard::ShardedSimulation sharded(scenario, shards);
      sharded.run();
      digests.push_back(sharded.digest());
      if (!sharded.violations().empty()) {
        ++fed_failing;
        std::printf("seed %llu: %zu violation(s)\n",
                    static_cast<unsigned long long>(seed + i),
                    sharded.violations().size());
        for (const auto& v : sharded.violations()) std::printf("  %s\n", v.c_str());
      }
    }
    if (!digest_path.empty()) {
      std::ofstream out(digest_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", digest_path.c_str());
        return 1;
      }
      for (const auto& d : digests) out << d << '\n';
      std::printf("%zu digest line(s) -> %s\n", digests.size(), digest_path.c_str());
    }
    std::printf("%zu/%zu federation replications clean\n", replications - fed_failing,
                replications);
    return fed_failing == 0 ? 0 : 1;
  }

  obs::ProfileScope profile;
  if (!profile_path.empty()) profile.arm(profile_path);
  if (!flight_path.empty()) obs::FlightRecorder::instance().arm(flight_path);

  std::ofstream trace_stream;
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  if (!trace_path.empty()) {
    if (replications != 1) {
      std::fprintf(stderr, "--trace-out requires --replications 1\n");
      return 2;
    }
    trace_stream.open(trace_path);
    if (!trace_stream) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    trace_sink = std::make_unique<obs::JsonlTraceSink>(trace_stream);
    config.trace_sink = trace_sink.get();
  }

  std::fprintf(stderr, "chaos battery: %zu replication(s), seeds %llu..%llu%s\n",
               replications, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(seed + replications - 1),
               config.sabotage ? " [sabotage]" : "");

  std::vector<workload::ChaosResult> results;
  if (replications == 1) {
    results.push_back(workload::run_chaos(config, seed));
  } else {
    results = workload::run_chaos_battery(config, seed, replications);
  }

  if (!digest_path.empty()) {
    std::ofstream out(digest_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", digest_path.c_str());
      return 1;
    }
    for (const auto& r : results) out << r.digest << '\n';
    std::printf("%zu digest line(s) -> %s\n", results.size(), digest_path.c_str());
  }

  std::size_t failing = 0;
  std::uint64_t crashes = 0, outages = 0, shed = 0, recovered = 0;
  std::optional<std::uint64_t> first_failing_seed;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    crashes += r.server_crashes;
    outages += r.idc_outages;
    shed += r.front_shed + r.tasks_shed;
    recovered += r.tasks_recovered;
    if (!r.ok()) {
      ++failing;
      if (!first_failing_seed) first_failing_seed = seed + i;
      std::printf("seed %llu: %zu violation(s)\n",
                  static_cast<unsigned long long>(seed + i), r.violations.size());
      for (const auto& v : r.violations) {
        std::printf("  [%s] %s\n", v.invariant.c_str(), v.detail.c_str());
      }
    }
  }
  std::printf("%zu/%zu replications clean; %llu server crashes, %llu IDC outages, "
              "%llu tasks shed, %llu tasks recovered\n",
              results.size() - failing, results.size(),
              static_cast<unsigned long long>(crashes),
              static_cast<unsigned long long>(outages),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(recovered));

  if (!flight_path.empty()) {
    auto& recorder = obs::FlightRecorder::instance();
    std::fprintf(stderr, "flight recorder: %llu dump(s) -> %s\n",
                 static_cast<unsigned long long>(recorder.dump_count()),
                 flight_path.c_str());
    recorder.disarm();
  }

  if (shrink && first_failing_seed) {
    std::fprintf(stderr, "shrinking the seed-%llu schedule...\n",
                 static_cast<unsigned long long>(*first_failing_seed));
    workload::ChaosConfig shrink_cfg = config;
    shrink_cfg.trace_sink = nullptr;
    const auto minimal = workload::shrink_chaos_schedule(shrink_cfg, *first_failing_seed);
    std::printf("minimal failing schedule: %zu window(s)\n", minimal.windows.size());
    print_schedule(minimal);
  }

  if (config.sabotage) {
    // Every replication whose schedule contains a server crash must have
    // been flagged; if the harness let one through, that is the failure.
    std::size_t expected = 0;
    for (const auto& r : results) {
      if (r.schedule.count(recovery::FaultTargetKind::kServer) > 0) ++expected;
    }
    if (failing < expected) {
      std::fprintf(stderr, "sabotage NOT caught: %zu/%zu poisoned runs flagged\n",
                   failing, expected);
      return 1;
    }
    std::printf("sabotage caught in all %zu poisoned replication(s)\n", expected);
    return 0;
  }
  return failing == 0 ? 0 : 1;
}
