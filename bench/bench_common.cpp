#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>

#include "common/strings.hpp"
#include "exec/thread_pool.hpp"
#include "workload/profiles.hpp"
#include "workload/synth.hpp"

namespace gridvc::bench {

const gridftp::TransferLog& ncar_log() {
  static const gridftp::TransferLog log =
      workload::synthesize_trace(workload::ncar_nics_profile(), kSeed);
  return log;
}

const gridftp::TransferLog& slac_log(double scale) {
  // Memoized per scale: a bench that warms up at scale 0.05 and then
  // asks for 1.0 must not be served the small log again.
  static std::map<double, gridftp::TransferLog> logs;
  auto it = logs.find(scale);
  if (it == logs.end()) {
    it = logs.emplace(scale, workload::synthesize_trace(workload::slac_bnl_profile(scale),
                                                        kSeed + 1))
             .first;
  }
  return it->second;
}

const workload::NerscOrnlResult& nersc_ornl_result() {
  static const workload::NerscOrnlResult result =
      workload::run_nersc_ornl_tests(workload::NerscOrnlConfig{}, kSeed + 2);
  return result;
}

const workload::AnlNerscResult& anl_nersc_result() {
  static const workload::AnlNerscResult result =
      workload::run_anl_nersc_tests(workload::AnlNerscConfig{}, kSeed + 3);
  return result;
}

std::vector<double> directional_attributed_bytes(const workload::NerscOrnlResult& result,
                                                 std::size_t router_idx) {
  std::vector<double> out;
  out.reserve(result.log.size());
  for (const auto& r : result.log) {
    const net::SnmpSeries& series = r.type == gridftp::TransferType::kRetrieve
                                        ? result.forward_series.at(router_idx)
                                        : result.reverse_series.at(router_idx);
    out.push_back(analysis::attributed_bytes(series, r.start_time, r.duration));
  }
  return out;
}

ObsDeltas read_obs_deltas(const sim::Simulator& sim) {
  const obs::MetricsSnapshot snap = sim.obs().registry().snapshot();
  ObsDeltas d;
  d.scheduled = snap.value("gridvc_sim_events_scheduled");
  d.cancelled = snap.value("gridvc_sim_events_cancelled");
  d.dispatched = snap.value("gridvc_sim_events_dispatched");
  d.recomputes = snap.value("gridvc_net_recomputes");
  d.rate_changes = snap.value("gridvc_net_rate_changes");
  return d;
}

void print_exhibit_header(const std::string& exhibit, const std::string& paper_reference) {
  std::printf("================================================================\n");
  std::printf("%s\n", exhibit.c_str());
  if (!paper_reference.empty()) {
    std::printf("Paper: %s\n", paper_reference.c_str());
  }
  std::printf("================================================================\n");
}

Harness::Harness(int argc, char** argv, std::string exhibit)
    : exhibit_(std::move(exhibit)), start_(std::chrono::steady_clock::now()) {
  json_path_ = "BENCH_" + exhibit_ + ".json";
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--threads") == 0) {
      if (i + 1 == argc) {
        std::fprintf(stderr, "--threads: missing value\n");
        std::exit(2);
      }
      threads = static_cast<unsigned>(parse_flag_positive(
          "--threads", argv[++i], std::numeric_limits<unsigned>::max()));
    } else if (std::strcmp(arg, "--json-out") == 0 && i + 1 < argc) {
      json_path_ = argv[++i];
    } else if (std::strcmp(arg, "--no-json") == 0) {
      write_json_ = false;
    }
  }
  if (const char* env = std::getenv("GRIDVC_BENCH_NO_JSON");
      env != nullptr && *env != '\0' && *env != '0') {
    write_json_ = false;
  }
  if (threads > 0) exec::set_default_threads(threads);
}

unsigned Harness::threads() const { return exec::default_threads(); }

void Harness::note(const std::string& key, double value) {
  counters_.emplace_back(key, value);
}

void Harness::note_metrics(const obs::MetricsSnapshot& snapshot) {
  for (const char* name :
       {"gridvc_sim_events_scheduled", "gridvc_sim_events_cancelled",
        "gridvc_sim_events_dispatched", "gridvc_net_recomputes",
        "gridvc_net_rate_changes"}) {
    note(name, snapshot.value(name));
  }
}

Harness::~Harness() {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  if (!write_json_) return;
  std::ofstream out(json_path_);
  if (!out) {
    std::fprintf(stderr, "bench harness: cannot write %s\n", json_path_.c_str());
    return;
  }
  out << "{\n"
      << "  \"exhibit\": \"" << exhibit_ << "\",\n"
      << "  \"threads\": " << threads() << ",\n"
      << "  \"wall_seconds\": " << wall << ",\n"
      << "  \"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << counters_[i].first
        << "\": " << counters_[i].second;
  }
  if (!counters_.empty()) out << "\n  ";
  out << "}\n}\n";
}

std::string fmt1(double v) { return format_grouped(v, 1); }
std::string fmt2(double v) { return format_grouped(v, 2); }
std::string fmt_int(double v) { return format_grouped(v, 0); }

}  // namespace gridvc::bench
