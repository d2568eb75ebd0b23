// gridvc-synth: generate a GridFTP usage-statistics log as CSV.
//
//   gridvc-synth --profile slac|ncar [--scale F] [--seed N] [--threads N]
//                [--out FILE]
//
// The CSV uses the schema of gridftp/transfer_log.hpp and is consumed by
// gridvc-analyze (or any spreadsheet).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/strings.hpp"
#include "exec/thread_pool.hpp"
#include "gridftp/transfer_log.hpp"
#include "workload/profiles.hpp"
#include "workload/synth.hpp"

using namespace gridvc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --profile slac|ncar [--scale F] [--seed N] [--threads N]\n"
               "          [--out FILE]\n"
               "  --profile  which calibrated dataset profile to synthesize\n"
               "  --scale    fraction of the full dataset, (0,1]; default 1.0\n"
               "             (applies to the SLAC profile's 1.02M transfers)\n"
               "  --seed     RNG seed; default 1\n"
               "  --threads  execution-pool width; 0 = hardware (the output\n"
               "             is byte-identical at any value)\n"
               "  --out      output path; default stdout\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string profile_name;
  std::string out_path;
  double scale = 1.0;
  std::uint64_t seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profile" && i + 1 < argc) {
      profile_name = argv[++i];
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = parse_flag_count(arg, argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      exec::set_default_threads(parse_flag_count<unsigned>(arg, argv[++i]));
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  workload::SessionTraceProfile profile;
  if (profile_name == "slac") {
    profile = workload::slac_bnl_profile(scale);
  } else if (profile_name == "ncar") {
    profile = workload::ncar_nics_profile();
    if (scale > 0.0 && scale < 1.0) {
      profile.target_transfers =
          static_cast<std::size_t>(static_cast<double>(profile.target_transfers) * scale);
    }
  } else {
    return usage(argv[0]);
  }

  std::fprintf(stderr, "synthesizing %zu transfers (profile %s, seed %llu)...\n",
               profile.target_transfers, profile.name.c_str(),
               static_cast<unsigned long long>(seed));
  const auto log = workload::synthesize_trace(profile, seed);

  if (out_path.empty()) {
    gridftp::write_log(std::cout, log);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    gridftp::write_log(out, log);
    std::fprintf(stderr, "wrote %zu records to %s\n", log.size(), out_path.c_str());
  }
  return 0;
}
