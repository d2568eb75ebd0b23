// gridvc-analyze: run the paper's analyses on a GridFTP log CSV, and/or
// replay a structured trace into per-transfer / per-circuit timelines.
//
//   gridvc-analyze [--gap SECONDS] [--setup SECONDS] [--classes]
//                  [--burstiness] [--trace FILE.jsonl]
//                  [--metrics-out FILE] [FILE]
//
// With a log FILE: prints transfer/session characterization (Tables
// I/II style), the session census (Table III style), VC suitability
// (Table IV style), and optionally the elephant/tortoise/cheetah
// classification.
//
// With --trace: reads the JSONL event stream a simulation emitted
// (gridvc-simulate --trace-out) and reconstructs each transfer's
// submit -> start -> finish timeline with queue-wait attribution and
// each circuit's request -> grant -> activate -> release lifecycle with
// setup-delay attribution.
//
// --metrics-out writes the tool's own analysis metrics
// (gridvc_analyze_*) in Prometheus text format (CSV when FILE ends
// ".csv").
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/burstiness.hpp"
#include "analysis/flow_classification.hpp"
#include "analysis/report.hpp"
#include "analysis/session_grouping.hpp"
#include "analysis/throughput_analysis.hpp"
#include "analysis/vc_feasibility.hpp"
#include "common/strings.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "stats/table.hpp"

using namespace gridvc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--gap SECONDS] [--setup SECONDS] [--classes]\n"
               "          [--burstiness] [--trace FILE.jsonl] [--metrics-out FILE]\n"
               "          [--threads N] [FILE]\n"
               "  --gap         session gap parameter g (default 60)\n"
               "  --threads     execution-pool width; 0 = hardware (results are\n"
               "                identical at any value)\n"
               "  --setup       VC setup delay to evaluate (default 60)\n"
               "  --classes     also print the flow-class taxonomy\n"
               "  --burstiness  also print session burstiness statistics\n"
               "  --trace       replay a JSONL trace into timelines\n"
               "  --metrics-out write gridvc_analyze_* metrics (CSV when .csv)\n",
               argv0);
  return 2;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

const char* reject_reason_name(std::uint64_t reason) {
  switch (reason) {
    case 0: return "no-route";
    case 1: return "no-bandwidth";
    case 2: return "invalid";
    default: return "unknown";
  }
}

int replay_trace(const std::string& path, obs::MetricsRegistry& reg) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<obs::TraceEvent> events;
  try {
    events = obs::read_trace_jsonl(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace parse error: %s\n", e.what());
    return 1;
  }
  reg.add(reg.counter("gridvc_analyze_trace_events", "Trace events replayed"),
          events.size());

  const obs::Timelines tl = obs::build_timelines(events);
  reg.add(reg.counter("gridvc_analyze_trace_transfers",
                      "Transfers reconstructed from the trace"),
          tl.transfers.size());
  reg.add(reg.counter("gridvc_analyze_trace_circuits",
                      "Circuit lifecycles reconstructed from the trace"),
          tl.circuits.size());
  const obs::MetricId queue_wait_hist = reg.histogram(
      "gridvc_analyze_trace_queue_wait_seconds", {0.1, 0.5, 1, 5, 15, 60, 300},
      "Queue wait of replayed transfers");

  std::printf("%zu trace events from %s: %zu transfers (%zu finished), "
              "%zu circuit requests\n\n",
              events.size(), path.c_str(), tl.transfers.size(),
              tl.finished_transfers(), tl.circuits.size());

  std::printf("per-transfer timelines (submit -> start -> finish):\n");
  for (const auto& [id, t] : tl.transfers) {
    if (t.started) reg.observe(queue_wait_hist, t.queue_wait);
    if (t.complete()) {
      std::printf("  transfer %llu: submit %.1f s, +%.1f s queue wait, "
                  "finish %.1f s (total %.1f s, %.2f GB, %llu stripes%s)\n",
                  static_cast<unsigned long long>(id), t.submit_time, t.queue_wait,
                  t.finish_time, t.duration(), to_gigabytes(t.bytes),
                  static_cast<unsigned long long>(t.stripes),
                  t.retries > 0 ? ", retried" : "");
    } else {
      std::printf("  transfer %llu: submit %.1f s, %s\n",
                  static_cast<unsigned long long>(id), t.submit_time,
                  t.started ? "still in flight at end of trace" : "never started");
    }
  }

  if (!tl.circuits.empty()) {
    std::printf("\nper-circuit lifecycles (request -> activate -> release):\n");
    for (const auto& [id, c] : tl.circuits) {
      if (c.rejected) {
        std::printf("  circuit %llu: requested %.1f s, REJECTED (%s)\n",
                    static_cast<unsigned long long>(id), c.request_time,
                    reject_reason_name(c.reject_reason));
        continue;
      }
      if (c.activated) {
        std::printf("  circuit %llu: requested %.1f s, active %.1f s "
                    "(setup delay %.1f s, %.1f Gbps)%s\n",
                    static_cast<unsigned long long>(id), c.request_time,
                    c.activate_time, c.setup_delay, to_gbps(c.bandwidth),
                    c.released ? "" : ", never released");
      } else {
        std::printf("  circuit %llu: requested %.1f s, %s\n",
                    static_cast<unsigned long long>(id), c.request_time,
                    c.cancelled ? "cancelled before activation"
                                : "granted but not yet active");
      }
    }
  }
  return 0;
}

int write_metrics_file(const obs::MetricsRegistry& reg, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  const obs::MetricsSnapshot snapshot = reg.snapshot();
  if (ends_with(path, ".csv")) {
    obs::write_csv(out, snapshot);
  } else {
    obs::write_prometheus(out, snapshot);
  }
  std::printf("\nanalysis metrics (%zu) -> %s\n", snapshot.entries.size(), path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double gap = 60.0;
  double setup = 60.0;
  bool classes = false;
  bool burstiness = false;
  std::string path, trace_path, metrics_path;
  std::string log_flag;  // last flag given that only the log analyses honour

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gap" || arg == "--setup" || arg == "--classes" || arg == "--burstiness") {
      log_flag = arg;
    }
    if (arg == "--gap" && i + 1 < argc) {
      gap = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      exec::set_default_threads(parse_flag_count<unsigned>(arg, argv[++i]));
    } else if (arg == "--setup" && i + 1 < argc) {
      setup = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--classes") {
      classes = true;
    } else if (arg == "--burstiness") {
      burstiness = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty() && trace_path.empty()) return usage(argv[0]);
  if (path.empty() && !log_flag.empty()) {
    std::fprintf(stderr, "%s: %s needs a log FILE; --trace alone does not honour it\n",
                 argv[0], log_flag.c_str());
    return 2;
  }

  // The analyzer keeps its own registry: it is a standalone process with
  // no simulator, and its metrics describe the analysis, not a run.
  obs::MetricsRegistry reg;

  if (!trace_path.empty()) {
    const int rc = replay_trace(trace_path, reg);
    if (rc != 0) return rc;
    if (path.empty()) {
      if (!metrics_path.empty()) return write_metrics_file(reg, metrics_path);
      return 0;
    }
    std::printf("\n");
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  gridftp::TransferLog log;
  try {
    log = gridftp::read_log(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
  if (log.empty()) {
    std::fprintf(stderr, "log is empty\n");
    return 1;
  }
  std::printf("%zu transfers read from %s\n\n", log.size(), path.c_str());
  reg.add(reg.counter("gridvc_analyze_transfers_analyzed",
                      "Log records fed to the analyses"),
          log.size());

  const auto sessions = analysis::group_sessions(log, {.gap = gap});
  reg.add(reg.counter("gridvc_analyze_sessions_found",
                      "Sessions the gap-grouping produced"),
          sessions.size());
  const obs::MetricId throughput_hist = reg.histogram(
      "gridvc_analyze_transfer_throughput_mbps",
      {10, 50, 100, 250, 500, 1000, 2500, 5000},
      "Per-transfer achieved throughput of the analyzed log");
  for (const auto& r : log) {
    if (r.duration > 0.0) {
      reg.observe(throughput_hist, to_mbps(achieved_rate(r.size, r.duration)));
    }
  }

  stats::Table characterization("Characterization (g = " + format_fixed(gap, 0) + " s)");
  characterization.set_header(analysis::summary_header("Quantity"));
  characterization.add_row(analysis::summary_row(
      "Session size (MB)", stats::summarize(analysis::session_sizes_megabytes(sessions)),
      1));
  characterization.add_row(analysis::summary_row(
      "Session duration (s)",
      stats::summarize(analysis::session_durations_seconds(sessions)), 1));
  characterization.add_row(analysis::summary_row(
      "Transfer throughput (Mbps)", analysis::throughput_summary_mbps(log), 1));
  std::printf("%s\n", characterization.render().c_str());

  const auto c = analysis::census(sessions);
  std::printf("sessions: %zu (%zu single-transfer, %zu multi; largest holds %zu "
              "transfers; %zu hold >= 100)\n",
              c.total_sessions(), c.single_transfer_sessions, c.multi_transfer_sessions,
              c.max_transfers_in_session, c.sessions_with_100_or_more);

  const auto f = analysis::analyze_vc_feasibility(sessions, log, {.setup_delay = setup});
  std::printf("\nVC suitability at setup = %s s: %s of sessions (%s of transfers) "
              "qualify; min session size %s MB; Q3 reference throughput %s Mbps\n",
              format_fixed(setup, setup < 1.0 ? 2 : 0).c_str(),
              format_percent(f.session_fraction(), 2).c_str(),
              format_percent(f.transfer_fraction(), 2).c_str(),
              format_grouped(to_megabytes(f.min_suitable_size), 1).c_str(),
              format_fixed(to_mbps(f.reference_throughput), 1).c_str());

  if (burstiness) {
    const auto b = analysis::session_burstiness(log, sessions);
    const auto summary = stats::summarize(b);
    std::printf("\nSession burstiness (peak 30s-window rate / mean rate):\n"
                "  median %.2f, mean %.2f, p75 %.2f, max %.2f\n",
                summary.median, summary.mean, summary.q3, summary.max);
  }

  if (classes) {
    const auto thresholds = analysis::quantile_thresholds(log, 0.95);
    const auto masks = analysis::classify(log, thresholds);
    const auto s = analysis::summarize_classification(log, masks);
    std::printf("\nFlow classes (top-5%% per dimension):\n");
    std::printf("  elephants (size)    : %zu\n", s.elephants);
    std::printf("  tortoises (duration): %zu\n", s.tortoises);
    std::printf("  cheetahs (rate)     : %zu\n", s.cheetahs);
    std::printf("  alphas (big & fast) : %zu, carrying %s of all bytes\n", s.alphas,
                format_percent(s.alpha_byte_fraction, 1).c_str());
  }

  if (!metrics_path.empty()) return write_metrics_file(reg, metrics_path);
  return 0;
}
