// gridvc-profile: inspect Chrome trace-event profiles written by
// --profile-out (gridvc-simulate, gridvc-chaos, bench_perf_micro).
//
//   gridvc-profile FILE.json [--top N]       hotspot table
//   gridvc-profile --digest FILE.json        "name count" per zone; the
//                                            digest is byte-identical
//                                            across --threads for the
//                                            same workload
//   gridvc-profile --diff A.json B.json      per-zone deltas (B - A)
//
// Exit is nonzero on unreadable or malformed input, so CI can use any
// mode as a structural validity check; an unknown flag exits 2 naming it.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "obs/profile_io.hpp"

using namespace gridvc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s FILE.json [--top N]\n"
               "       %s --digest FILE.json\n"
               "       %s --diff BEFORE.json AFTER.json [--top N]\n"
               "  default   top-N hotspots (self-time descending)\n"
               "  --digest  one 'name count' line per zone; identical\n"
               "            across --threads for the same workload\n"
               "  --diff    per-zone self/total/count deltas\n",
               argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "hotspots";
  std::vector<std::string> files;
  std::size_t top_n = 20;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--digest") {
      mode = "digest";
    } else if (arg == "--diff") {
      mode = "diff";
    } else if (arg == "--top" && i + 1 < argc) {
      top_n = parse_flag_count(arg, argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown flag or missing value: %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  const std::size_t want = mode == "diff" ? 2 : 1;
  if (files.size() != want) return usage(argv[0]);

  try {
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
