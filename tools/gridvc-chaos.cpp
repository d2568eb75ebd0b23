// gridvc-chaos: seeded chaos batteries over the full stack.
//
//   gridvc-chaos [--seed N] [--replications N] [--threads N]
//                [--tasks N] [--queue-limit N] [--tenants N (default 1)]
//                [--policy reject-new|shed-oldest|priority]
//                [--service-crash-at S] [--sabotage] [--shrink]
//                [--digest-out FILE] [--trace-out FILE.jsonl]
//                [--profile-out FILE.json] [--flight-out FILE.jsonl]
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
// trace-event JSON profile (inspect via gridvc-profile) of the battery
// and any --shrink runs. --flight-out replays the first failing seed
// after the battery with a 512-event ring as its trace sink and writes
// that tail as JSONL (read it with gridvc-analyze --trace); stderr names
// the seed and its first violated invariant. A replication depends only
// on (config, seed), so the dump is the last 512 lines of that seed's
// own --trace-out at any --threads. A clean battery writes no dump.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "exec/thread_pool.hpp"
#include "obs/profile_io.hpp"
#include "obs/trace.hpp"
#include "recovery/fault_schedule.hpp"
#include "workload/chaos.hpp"

using namespace gridvc;

namespace {

/// Trace events a --flight-out dump keeps: the failing seed's tail.
constexpr std::size_t kFlightEvents = 512;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--replications N] [--threads N]\n"
               "          [--tasks N] [--interarrival S] [--queue-limit N] [--tenants N]\n"
               "          [--policy reject-new|shed-oldest|priority]\n"
               "          [--service-crash-at S] [--malleable] [--sabotage] [--shrink]\n"
               "          [--digest-out FILE] [--trace-out FILE.jsonl]\n"
               "          [--profile-out FILE.json] [--flight-out FILE.jsonl]\n"
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
               "  --flight-out       replay the first failing seed; write its\n"
               "                     last 512 trace events as JSONL\n",
               argv0);
  return 2;
}

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

// Replay the failing seed with a ring as its trace sink and write the
// ring as JSONL. Returns false when the replay diverges from the
// battery's run of that seed or the file cannot be written.
bool write_flight_dump(const workload::ChaosConfig& config, std::uint64_t seed,
                       const workload::ChaosResult& failing, const std::string& path) {
  obs::RingBufferTraceSink ring(kFlightEvents);
  workload::ChaosConfig replay = config;
  replay.trace_sink = &ring;
  if (workload::run_chaos(replay, seed).digest != failing.digest) {
    std::fprintf(stderr, "flight replay of seed %llu diverged from the battery\n",
                 static_cast<unsigned long long>(seed));
    return false;
  }
  const std::vector<obs::TraceEvent> tail = ring.events();
  std::ofstream out(path);
  obs::JsonlTraceSink jsonl(out);
  for (const obs::TraceEvent& event : tail) jsonl.emit(event);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "flight dump: seed %llu [%s], last %zu of %llu trace events -> %s\n",
               static_cast<unsigned long long>(seed),
               failing.violations.front().invariant.c_str(), tail.size(),
               static_cast<unsigned long long>(ring.total_emitted()), path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  workload::ChaosConfig config;
  std::uint64_t seed = 1;
  std::size_t replications = 1;
  bool shrink = false;
  std::string digest_path, trace_path, profile_path, flight_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
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

  obs::ProfileScope profile;
  if (!profile_path.empty()) profile.arm(profile_path);

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

  if (shrink && first_failing_seed) {
    std::fprintf(stderr, "shrinking the seed-%llu schedule...\n",
                 static_cast<unsigned long long>(*first_failing_seed));
    workload::ChaosConfig shrink_cfg = config;
    shrink_cfg.trace_sink = nullptr;
    const auto minimal = workload::shrink_chaos_schedule(shrink_cfg, *first_failing_seed);
    std::printf("minimal failing schedule: %zu window(s)\n", minimal.windows.size());
    print_schedule(minimal);
  }

  // The flight replay is not part of the profiled battery.
  profile.finish();
  if (!flight_path.empty() && !first_failing_seed) {
    std::fprintf(stderr, "flight dump: every replication clean, %s not written\n",
                 flight_path.c_str());
  } else if (!flight_path.empty() &&
             !write_flight_dump(config, *first_failing_seed,
                                results[*first_failing_seed - seed], flight_path)) {
    return 1;
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
