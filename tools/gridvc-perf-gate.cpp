// gridvc-perf-gate: compare a fresh BENCH_perf_scale.json against the
// checked-in baseline and fail on regressions.
//
//   gridvc-perf-gate --baseline bench/baselines/BENCH_perf_scale.json
//                    --current BENCH_perf_scale.json [--tolerance 0.20]
//
// Both files are BENCH_*.json exhibits ({"exhibit": ..., "counters":
// {...}}). The gate reads every counter whose key starts with "ratio_"
// from the baseline — those are the scale-curve shape metrics
// (us/op at the top size divided by us/op at 10k), which are stable
// across machines in a way raw microsecond counters are not — and
// requires the current value to be at most baseline * (1 + tolerance).
// A missing key in the current file is a failure too: a renamed or
// dropped curve must update the baseline deliberately. Exit status is
// 0 when every gated key passes, 1 otherwise, with a per-key listing
// either way; a missing, malformed or truncated file exits 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"

namespace {

[[noreturn]] void fail_input(const std::string& path, const std::string& why) {
  std::fprintf(stderr, "gridvc-perf-gate: %s: %s\n", path.c_str(), why.c_str());
  std::exit(2);
}

/// The numeric members of the file's "counters" object. The file is
/// parsed as strict JSON, so a truncated or malformed file exits 2
/// instead of gating whatever keys a partial read happened to see.
std::map<std::string, double> read_counters(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail_input(path, "cannot open");
  std::stringstream ss;
  ss << in.rdbuf();
  gridvc::Json doc;
  try {
    doc = gridvc::parse_json(ss.str());
  } catch (const gridvc::ParseError& e) {
    fail_input(path, e.what());
  }
  const gridvc::Json* counters = doc.get("counters");
  if (counters == nullptr || counters->type != gridvc::Json::Type::kObject) {
    fail_input(path, "no \"counters\" object");
  }
  std::map<std::string, double> out;
  for (const auto& [key, value] : counters->object) {
    if (value.type == gridvc::Json::Type::kNumber) out[key] = value.number;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, current_path;
  double tolerance = 0.20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--current") == 0 && i + 1 < argc) {
      current_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = gridvc::parse_flag_number("--tolerance", argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: gridvc-perf-gate --baseline FILE --current FILE "
                   "[--tolerance FRACTION]\n");
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr, "gridvc-perf-gate: --baseline and --current are required\n");
    return 2;
  }

  const auto baseline = read_counters(baseline_path);
  const auto current = read_counters(current_path);

  int gated = 0, regressed = 0, missing = 0;
  std::printf("perf gate: tolerance %.0f%%, baseline %s\n", tolerance * 100.0,
              baseline_path.c_str());
  for (const auto& [key, base] : baseline) {
    if (key.rfind("ratio_", 0) != 0) continue;
    ++gated;
    const auto it = current.find(key);
    if (it == current.end()) {
      std::printf("  FAIL %-44s baseline %8.3f  current missing\n", key.c_str(), base);
      ++missing;
      continue;
    }
    const double limit = base * (1.0 + tolerance);
    const bool ok = it->second <= limit;
    std::printf("  %s %-44s baseline %8.3f  current %8.3f  limit %8.3f\n",
                ok ? "ok  " : "FAIL", key.c_str(), base, it->second, limit);
    if (!ok) ++regressed;
  }
  // Keys only on the candidate side are the other half of a rename: the
  // baseline-side half already failed above, but naming the new key makes
  // the fix (update the baseline deliberately) obvious from the log.
  for (const auto& [key, value] : current) {
    if (key.rfind("ratio_", 0) != 0) continue;
    if (baseline.find(key) == baseline.end()) {
      std::printf("  note %-44s current %8.3f  not in baseline (ungated)\n",
                  key.c_str(), value);
    }
  }
  if (gated == 0) {
    std::fprintf(stderr, "gridvc-perf-gate: baseline has no ratio_* keys to gate\n");
    return 2;
  }
  if (regressed + missing > 0) {
    std::printf("perf gate: %d/%d gated keys failed (%d regressed beyond tolerance, "
                "%d missing from current)\n",
                regressed + missing, gated, regressed, missing);
    return 1;
  }
  std::printf("perf gate: all %d gated keys within tolerance\n", gated);
  return 0;
}
