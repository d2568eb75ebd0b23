// gridvc-simulate: run one of the full event-driven scenarios and dump
// its artifacts.
//
//   gridvc-simulate --scenario nersc-ornl|anl-nersc|managed-vc|faulty-wan
//                   [--seed N] [--days N] [--tasks N] [--transfers N]
//                   [--link-mtbf S] [--link-mttr S]
//                   [--server-mtbf S] [--server-mttr S]
//                   [--idc-outage S] [--idc-mttr S]
//                   [--log FILE] [--snmp FILE] [--metrics-out FILE]
//                   [--trace-out FILE.jsonl]
//
// nersc-ornl: the 145x32GB test-transfer study; --snmp dumps the five
// monitored routers' forward-direction 30-s byte series.
// anl-nersc: the 334-test matrix; --log holds the full NERSC-side log.
// managed-vc: the VC-aware managed transfer service (exercises all four
// instrumented layers: sim, net, gridftp, vc).
// faulty-wan: circuits and transfers riding a flapping backbone span
// (--link-mtbf/--link-mttr tune the fault process; --link-mtbf 0
// disables it). Exercises the failure semantics end to end: flow aborts,
// restart-marker retries, circuit failure and re-signaling.
// --server-mtbf adds source-DTN crash/restart windows and --idc-outage
// adds control-plane outage windows to faulty-wan (both disabled by
// default, leaving legacy seeds byte-identical).
//
// --metrics-out writes the end-of-run metrics snapshot in Prometheus
// text exposition format, or as flat CSV when FILE ends in ".csv".
// --trace-out streams every structured trace event as JSONL
// (replayable via `gridvc-analyze --trace FILE`, checkable via
// gridvc-trace-check).
// --profile-out enables the zone profiler for the run and writes a
// Chrome trace-event JSON profile (Perfetto-loadable; inspect/diff via
// gridvc-profile).
//
// A flag the selected scenario does not honour is an error (exit 2,
// naming the flag), never silently ignored. So is a count of 0 (--days,
// --tasks, --transfers, --sites, --users, --shards: leave the flag out
// for the scenario default) and a zero repair time on an enabled
// faulty-wan fault kind.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/strings.hpp"
#include "gridftp/transfer_log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile_io.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_simulation.hpp"
#include "workload/federation.hpp"
#include "workload/scenarios.hpp"

using namespace gridvc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario nersc-ornl|anl-nersc|managed-vc|faulty-wan|federation\n"
               "          [--seed N] [--days N] [--tasks N] [--transfers N]\n"
               "          [--link-mtbf S] [--link-mttr S] [--server-mtbf S]\n"
               "          [--server-mttr S] [--idc-outage S] [--idc-mttr S]\n"
               "          [--log FILE] [--snmp FILE]\n"
               "          [--metrics-out FILE] [--trace-out FILE.jsonl]\n"
               "          [--profile-out FILE.json]\n"
               "  --days         scenario horizon in days (nersc-ornl, anl-nersc)\n"
               "  --tasks        task count (managed-vc)\n"
               "  --transfers    transfer count (faulty-wan)\n"
               "  --link-mtbf    mean seconds between link failures (faulty-wan;\n"
               "                 0 disables fault injection)\n"
               "  --link-mttr    mean seconds to repair a failed link (faulty-wan)\n"
               "  --server-mtbf  mean seconds between source-DTN crashes (faulty-wan;\n"
               "                 0, the default, disables server crashes)\n"
               "  --server-mttr  mean seconds until a crashed DTN restarts\n"
               "  --idc-outage   mean seconds between IDC control-plane outages\n"
               "                 (faulty-wan; 0, the default, disables them)\n"
               "  --idc-mttr     mean seconds until the control plane recovers\n"
               "  --metrics-out  Prometheus text snapshot (CSV when FILE ends .csv)\n"
               "  --trace-out    structured trace events as JSONL\n"
               "  --profile-out  zone profile as Chrome trace-event JSON\n"
               "  --shards       executor lanes for the sharded federation run, at\n"
               "                 most one per domain (federation; the digest is\n"
               "                 shard-count invariant)\n"
               "  --sites        federation site/domain count (federation)\n"
               "  --users        federation user-session count (federation)\n"
               "  --digest-out   write the deterministic run digest to FILE\n"
               "                 (federation)\n",
               argv0);
  return 2;
}

/// Scenario-specific flags each scenario honours.
const std::map<std::string, std::set<std::string>> kHonoured = {
    {"nersc-ornl", {"--days", "--log", "--snmp", "--metrics-out", "--trace-out"}},
    {"anl-nersc", {"--days", "--log", "--metrics-out", "--trace-out"}},
    {"managed-vc", {"--tasks", "--metrics-out", "--trace-out"}},
    {"faulty-wan",
     {"--transfers", "--link-mtbf", "--link-mttr", "--server-mtbf", "--server-mttr",
      "--idc-outage", "--idc-mttr", "--metrics-out", "--trace-out"}},
    {"federation", {"--transfers", "--shards", "--sites", "--users", "--digest-out"}},
};

bool write_log_file(const gridftp::TransferLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  gridftp::write_log(out, log);
  return true;
}

int write_metrics(const obs::MetricsSnapshot& snapshot, const std::string& path) {
  if (!obs::write_metrics_file(path, snapshot)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("metrics snapshot (%zu metrics) -> %s\n", snapshot.entries.size(),
              path.c_str());
  return 0;
}

/// Holds the --trace-out stream + sink; null members when tracing is off.
struct TraceOut {
  std::ofstream stream;
  std::unique_ptr<obs::JsonlTraceSink> sink;

  static bool open(const std::string& path, TraceOut& out) {
    if (path.empty()) return true;
    out.stream.open(path);
    if (!out.stream) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out.sink = std::make_unique<obs::JsonlTraceSink>(out.stream);
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string scenario, log_path, snmp_path, metrics_path, trace_path, profile_path;
  std::uint64_t seed = 1;
  std::size_t days = 0;       // 0 = not given: scenario default
  std::size_t tasks = 0;      // 0 = not given: scenario default
  std::size_t transfers = 0;  // 0 = not given: scenario default
  double link_mtbf = -1.0;    // < 0 = scenario default
  double link_mttr = -1.0;    // < 0 = scenario default
  double server_mtbf = -1.0;  // < 0 = scenario default (disabled)
  double server_mttr = -1.0;  // < 0 = scenario default
  double idc_outage = -1.0;   // < 0 = scenario default (disabled)
  double idc_mttr = -1.0;     // < 0 = scenario default
  unsigned shards = 1;
  std::size_t sites = 0;      // 0 = not given: federation default
  std::uint64_t users = 0;    // 0 = not given: federation default
  std::string digest_path;
  std::vector<std::string> flags;  // scenario-specific flags given

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg != "--scenario" && arg != "--seed" && arg != "--profile-out") {
      flags.push_back(arg);
    }
    if (arg == "--scenario" && i + 1 < argc) {
      scenario = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = parse_flag_count(arg, argv[++i]);
    } else if (arg == "--days" && i + 1 < argc) {
      days = parse_flag_positive(arg, argv[++i]);
    } else if (arg == "--tasks" && i + 1 < argc) {
      tasks = parse_flag_positive(arg, argv[++i]);
    } else if (arg == "--transfers" && i + 1 < argc) {
      transfers = parse_flag_positive(arg, argv[++i]);
    } else if (arg == "--link-mtbf" && i + 1 < argc) {
      link_mtbf = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--link-mttr" && i + 1 < argc) {
      link_mttr = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--server-mtbf" && i + 1 < argc) {
      server_mtbf = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--server-mttr" && i + 1 < argc) {
      server_mttr = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--idc-outage" && i + 1 < argc) {
      idc_outage = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--idc-mttr" && i + 1 < argc) {
      idc_mttr = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<unsigned>(
          parse_flag_positive(arg, argv[++i], std::numeric_limits<unsigned>::max()));
    } else if (arg == "--sites" && i + 1 < argc) {
      sites = parse_flag_positive(arg, argv[++i]);
    } else if (arg == "--users" && i + 1 < argc) {
      users = parse_flag_positive(arg, argv[++i]);
    } else if (arg == "--digest-out" && i + 1 < argc) {
      digest_path = argv[++i];
    } else if (arg == "--log" && i + 1 < argc) {
      log_path = argv[++i];
    } else if (arg == "--snmp" && i + 1 < argc) {
      snmp_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--profile-out" && i + 1 < argc) {
      profile_path = argv[++i];
    } else {
      std::fprintf(stderr, "%s: unknown flag or missing value: %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    }
  }
  const auto honoured = kHonoured.find(scenario);
  if (honoured == kHonoured.end()) return usage(argv[0]);
  for (const std::string& flag : flags) {
    if (honoured->second.count(flag) == 0) {
      std::fprintf(stderr, "%s: --scenario %s does not honour %s\n", argv[0],
                   scenario.c_str(), flag.c_str());
      return 2;
    }
  }

  // Faulty-wan's fault processes, settled before any output is opened: an
  // enabled fault kind (mtbf > 0) needs a positive repair time.
  workload::FaultyWanConfig wan;
  if (transfers > 0) wan.transfer_count = transfers;
  if (link_mtbf >= 0.0) wan.link_mtbf = link_mtbf;
  if (link_mttr >= 0.0) wan.link_mttr = link_mttr;
  if (server_mtbf >= 0.0) wan.server_mtbf = server_mtbf;
  if (server_mttr >= 0.0) wan.server_mttr = server_mttr;
  if (idc_outage >= 0.0) wan.idc_outage_mtbf = idc_outage;
  if (idc_mttr >= 0.0) wan.idc_outage_mttr = idc_mttr;
  if (scenario == "faulty-wan") {
    const struct {
      double mtbf, mttr;
      const char* flag;
    } kinds[] = {{wan.link_mtbf, wan.link_mttr, "--link-mttr"},
                 {wan.server_mtbf, wan.server_mttr, "--server-mttr"},
                 {wan.idc_outage_mtbf, wan.idc_outage_mttr, "--idc-mttr"}};
    for (const auto& kind : kinds) {
      if (kind.mtbf > 0.0 && kind.mttr <= 0.0) {
        std::fprintf(stderr, "%s: %s must be > 0 while its fault kind is enabled\n",
                     argv[0], kind.flag);
        return 2;
      }
    }
  }

  TraceOut trace;
  if (!TraceOut::open(trace_path, trace)) return 1;

  // Written when main returns, whichever scenario branch we take.
  obs::ProfileScope profile;
  if (!profile_path.empty()) profile.arm(profile_path);

  if (scenario == "nersc-ornl") {
    std::fprintf(stderr, "running the NERSC-ORNL 32GB test scenario (seed %llu)...\n",
                 static_cast<unsigned long long>(seed));
    workload::NerscOrnlConfig config;
    if (days > 0) {
      config.days = days;
      // Keep slots non-degenerate on short horizons.
      config.transfer_count =
          std::min<std::size_t>(config.transfer_count,
                                days * config.launch_hours.size() * 3);
    }
    config.trace_sink = trace.sink.get();
    const auto result = workload::run_nersc_ornl_tests(config, seed);
    std::printf("%zu test transfers simulated; %zu monitored routers\n",
                result.log.size(), result.router_names.size());
    if (!log_path.empty()) {
      if (!write_log_file(result.log, log_path)) {
        std::fprintf(stderr, "cannot write %s\n", log_path.c_str());
        return 1;
      }
      std::printf("transfer log -> %s\n", log_path.c_str());
    }
    if (!snmp_path.empty()) {
      std::ofstream out(snmp_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", snmp_path.c_str());
        return 1;
      }
      CsvRow header{"bin_start_s"};
      for (const auto& name : result.router_names) header.push_back(name + "_bytes");
      out << format_csv_line(header) << '\n';
      const auto& first = result.forward_series.front();
      for (std::size_t bin = 0; bin < first.bins.size(); ++bin) {
        CsvRow row{format_fixed(first.bin_start(bin), 0)};
        for (const auto& series : result.forward_series) {
          row.push_back(format_fixed(bin < series.bins.size() ? series.bins[bin] : 0.0, 0));
        }
        out << format_csv_line(row) << '\n';
      }
      std::printf("SNMP series (%zu bins x %zu routers) -> %s\n", first.bins.size(),
                  result.forward_series.size(), snmp_path.c_str());
    }
    if (!metrics_path.empty()) return write_metrics(result.metrics, metrics_path);
    return 0;
  }

  if (scenario == "anl-nersc") {
    std::fprintf(stderr, "running the ANL-NERSC test-matrix scenario (seed %llu)...\n",
                 static_cast<unsigned long long>(seed));
    workload::AnlNerscConfig config;
    if (days > 0) {
      // Scale the test matrix with the horizon so short runs stay short.
      const double scale =
          static_cast<double>(days) / static_cast<double>(config.days);
      config.days = days;
      if (scale < 1.0) {
        config.mem_mem = std::max<std::size_t>(
            1, static_cast<std::size_t>(static_cast<double>(config.mem_mem) * scale));
        config.mem_disk = std::max<std::size_t>(
            1, static_cast<std::size_t>(static_cast<double>(config.mem_disk) * scale));
        config.disk_mem = std::max<std::size_t>(
            1, static_cast<std::size_t>(static_cast<double>(config.disk_mem) * scale));
        config.disk_disk = std::max<std::size_t>(
            1, static_cast<std::size_t>(static_cast<double>(config.disk_disk) * scale));
      }
    }
    config.trace_sink = trace.sink.get();
    const auto result = workload::run_anl_nersc_tests(config, seed);
    std::printf("%zu transfers at the NERSC DTN (tests: mm=%zu md=%zu dm=%zu dd=%zu)\n",
                result.all_log.size(), result.mem_mem.size(), result.mem_disk.size(),
                result.disk_mem.size(), result.disk_disk.size());
    if (!log_path.empty()) {
      if (!write_log_file(result.all_log, log_path)) {
        std::fprintf(stderr, "cannot write %s\n", log_path.c_str());
        return 1;
      }
      std::printf("transfer log -> %s\n", log_path.c_str());
    }
    if (!metrics_path.empty()) return write_metrics(result.metrics, metrics_path);
    return 0;
  }

  if (scenario == "managed-vc") {
    std::fprintf(stderr, "running the managed-VC service scenario (seed %llu)...\n",
                 static_cast<unsigned long long>(seed));
    workload::ManagedVcConfig config;
    if (tasks > 0) config.task_count = tasks;
    config.trace_sink = trace.sink.get();
    const auto result = workload::run_managed_vc(config, seed);
    std::printf("%zu tasks done (%zu transfers); circuits: %zu granted, %zu rejected, "
                "%zu retried; blocking %s\n",
                result.tasks_completed, result.transfers_completed,
                result.circuits_granted, result.circuits_rejected,
                result.circuit_retries,
                format_percent(result.blocking_probability, 1).c_str());
    if (!metrics_path.empty()) return write_metrics(result.metrics, metrics_path);
    return 0;
  }

  if (scenario == "faulty-wan") {
    std::fprintf(stderr, "running the faulty-WAN failure scenario (seed %llu)...\n",
                 static_cast<unsigned long long>(seed));
    wan.trace_sink = trace.sink.get();
    const auto result = workload::run_faulty_wan(wan, seed);
    std::printf(
        "%zu transfers completed, %zu permanently failed; "
        "%llu attempts aborted by outages\n",
        result.transfers_completed, result.transfers_failed,
        static_cast<unsigned long long>(result.aborted_attempts));
    std::printf(
        "links: %llu failures / %llu repairs; circuits: %zu granted, "
        "%llu failed, %llu re-signaled\n",
        static_cast<unsigned long long>(result.link_failures),
        static_cast<unsigned long long>(result.link_repairs),
        result.circuits_granted,
        static_cast<unsigned long long>(result.circuits_failed),
        static_cast<unsigned long long>(result.circuits_resignaled));
    if (result.server_crashes > 0 || result.idc_outages > 0) {
      std::printf(
          "process faults: %llu server crashes, %llu IDC outages "
          "(%llu fail-fast rejections)\n",
          static_cast<unsigned long long>(result.server_crashes),
          static_cast<unsigned long long>(result.idc_outages),
          static_cast<unsigned long long>(result.outage_rejections));
    }
    if (!metrics_path.empty()) return write_metrics(result.metrics, metrics_path);
    return 0;
  }

  if (scenario == "federation") {
    workload::FederationConfig config;
    if (sites > 0) config.sites = sites;
    if (users > 0) config.users = users;
    if (transfers > 0) {
      config.transfers_per_user = static_cast<std::uint32_t>(
          std::max<std::size_t>(1, transfers / std::max<std::uint64_t>(1, config.users)));
    }
    const auto scn = workload::build_federation(config, seed);
    shard::ShardedSimulation sharded(scn, shards);
    // shards() is the lane count in use: never more than the domains.
    std::fprintf(stderr,
                 "running the sharded multi-domain federation (seed %llu, %u shards)...\n",
                 static_cast<unsigned long long>(seed), sharded.shards());
    sharded.run();
    const auto& st = sharded.stats();
    std::printf("%llu/%llu transfers across %zu domains; %llu cross-shard msgs, "
                "%llu barriers, stall fraction %.3f\n",
                static_cast<unsigned long long>(st.transfers_completed),
                static_cast<unsigned long long>(scn.total_transfers()),
                sharded.partition().domain_count(),
                static_cast<unsigned long long>(st.messages),
                static_cast<unsigned long long>(st.barriers), st.stall_fraction());
    std::printf("chains: %llu granted, %llu rejected of %llu requested\n",
                static_cast<unsigned long long>(st.chains_granted),
                static_cast<unsigned long long>(st.chains_rejected),
                static_cast<unsigned long long>(st.chains_requested));
    std::printf("digest: %s\n", sharded.digest().c_str());
    for (const auto& v : sharded.violations()) {
      std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", v.c_str());
    }
    if (!digest_path.empty()) {
      std::ofstream out(digest_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", digest_path.c_str());
        return 1;
      }
      out << sharded.digest() << '\n';
      std::printf("digest -> %s\n", digest_path.c_str());
    }
    return sharded.violations().empty() ? 0 : 1;
  }

  return usage(argv[0]);
}
