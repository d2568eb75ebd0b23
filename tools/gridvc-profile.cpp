// gridvc-profile: inspect Chrome trace-event profiles written by
// --profile-out (gridvc-simulate, gridvc-chaos, bench_perf_micro).
//
//   gridvc-profile FILE.json [--top N]       hotspot table
//   gridvc-profile --digest FILE.json        "name count" per zone; the
//                                            digest is byte-identical
//                                            across --threads for the
//                                            same workload
//   gridvc-profile --diff A.json B.json      per-zone deltas (B - A)
//   gridvc-profile --check-flight FILE.json  validate a flight-recorder
//                                            dump
//
// Exit is nonzero on unreadable or malformed input, so CI can use any
// mode as a structural validity check.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/profile_io.hpp"

using namespace gridvc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s FILE.json [--top N]\n"
               "       %s --digest FILE.json\n"
               "       %s --diff BEFORE.json AFTER.json [--top N]\n"
               "       %s --check-flight FILE.json\n"
               "  default        top-N hotspots (self-time descending)\n"
               "  --digest       one 'name count' line per zone; identical\n"
               "                 across --threads for the same workload\n"
               "  --diff         per-zone self/total/count deltas\n"
               "  --check-flight validate a flight-recorder dump file\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GRIDVC_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A flight dump is not a profile; validate its shape directly.
int check_flight(const std::string& path) {
  const Json doc = parse_json(slurp(path));
  const Json* rec = doc.get("flightRecorder");
  GRIDVC_REQUIRE(rec != nullptr, path + ": missing flightRecorder object");
  const Json* reason = rec->get("reason");
  GRIDVC_REQUIRE(reason != nullptr && reason->type == Json::Type::kString &&
                     !reason->str.empty(),
                 path + ": flightRecorder.reason missing or empty");
  const Json* events = rec->get("traceEvents");
  GRIDVC_REQUIRE(events != nullptr && events->type == Json::Type::kArray,
                 path + ": flightRecorder.traceEvents missing");
  const Json* thread = rec->get("thread");
  GRIDVC_REQUIRE(thread != nullptr && thread->type == Json::Type::kObject,
                 path + ": flightRecorder.thread missing");
  std::size_t zones = 0;
  if (const Json* totals = rec->get("zoneTotals");
      totals != nullptr && totals->type == Json::Type::kArray) {
    zones = totals->array.size();
  }
  std::printf("%s: ok (reason=%s, %zu trace event(s), %zu zone total(s))\n",
              path.c_str(), reason->str.c_str(), events->array.size(), zones);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "hotspots";
  std::vector<std::string> files;
  std::size_t top_n = 20;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--digest" || arg == "--check-flight") {
      mode = arg.substr(2);
    } else if (arg == "--diff") {
      mode = "diff";
    } else if (arg == "--top" && i + 1 < argc) {
      top_n = parse_flag_count(arg, argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  const std::size_t want = mode == "diff" ? 2 : 1;
  if (files.size() != want) return usage(argv[0]);

  try {
    if (mode == "check-flight") return check_flight(files[0]);
    if (mode == "digest") {
      obs::write_profile_digest(std::cout, obs::read_profile_file(files[0]));
    } else if (mode == "diff") {
      obs::write_profile_diff(std::cout, obs::read_profile_file(files[0]),
                              obs::read_profile_file(files[1]), top_n);
    } else {
      obs::write_hotspots(std::cout, obs::read_profile_file(files[0]), top_n);
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "gridvc-profile: %s\n", err.what());
    return 1;
  }
  return 0;
}
