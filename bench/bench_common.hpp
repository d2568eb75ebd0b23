// Shared infrastructure for the reproduction harness.
//
// Each bench binary regenerates one exhibit of the paper (a table or a
// figure) from the synthetic workloads / simulated scenarios, prints the
// measured rows through stats::Table, and prints the paper's published
// values alongside where the OCR'd text preserves them, so the comparison
// is visible directly in the program output (EXPERIMENTS.md records the
// same numbers).
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "analysis/link_utilization.hpp"
#include "gridftp/transfer_log.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "workload/scenarios.hpp"

namespace gridvc::bench {

/// One fixed seed for every bench: runs are exactly reproducible.
inline constexpr std::uint64_t kSeed = 0x5EED2012ULL;

/// Per-binary bench harness. Construct first thing in main():
///
///   int main(int argc, char** argv) {
///     bench::Harness harness(argc, argv, "table4_vc_suitability");
///     ...
///
/// Parses the shared flags --threads N (execution-pool width, a count
/// >= 1; absent keeps the hardware default; a malformed or missing value
/// exits 2 naming the flag), --json-out PATH, and --no-json, then on
/// destruction writes BENCH_<exhibit>.json into the working directory:
/// exhibit name, thread count, wall-clock seconds, and whatever counters
/// the bench noted. GRIDVC_BENCH_NO_JSON=1 in the environment suppresses
/// the file (CI smoke runs that only care about stdout).
class Harness {
 public:
  Harness(int argc, char** argv, std::string exhibit);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Attach a named counter to the JSON report.
  void note(const std::string& key, double value);

  /// Record the standard event/recompute counters from a metrics
  /// snapshot (missing counters read as zero).
  void note_metrics(const obs::MetricsSnapshot& snapshot);

  /// Execution-pool width in force for this run.
  unsigned threads() const;

 private:
  std::string exhibit_;
  std::string json_path_;
  bool write_json_ = true;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, double>> counters_;
};

/// The synthesized NCAR-NICS log (full 52,454 transfers), memoized per
/// process.
const gridftp::TransferLog& ncar_log();

/// The synthesized SLAC-BNL log. `scale` in (0,1]; 1.0 = 1,021,999
/// transfers. Memoized per (process, first requested scale).
const gridftp::TransferLog& slac_log(double scale = 1.0);

/// The NERSC-ORNL 32 GB test-transfer scenario (145 transfers, SNMP),
/// memoized per process.
const workload::NerscOrnlResult& nersc_ornl_result();

/// The ANL-NERSC four-type test scenario (334 tests), memoized.
const workload::AnlNerscResult& anl_nersc_result();

/// Per-transfer eq.(1) bytes against router `router_idx`, using the
/// direction-appropriate interface for each record (forward series for
/// RETR = NERSC->ORNL, reverse for STOR).
std::vector<double> directional_attributed_bytes(const workload::NerscOrnlResult& result,
                                                 std::size_t router_idx);

/// Counter deltas a run left in a simulator's metrics registry: event
/// churn plus the network-layer recompute work. Benches divide these by
/// completed flows and publish them through state.counters, so perf
/// regressions in the scheduling path show up as counter drift even when
/// wall time is noisy.
struct ObsDeltas {
  double scheduled = 0;
  double cancelled = 0;
  double dispatched = 0;
  double recomputes = 0;
  double rate_changes = 0;
};
ObsDeltas read_obs_deltas(const sim::Simulator& sim);

/// Print a header naming the exhibit and, when known, the paper's values.
void print_exhibit_header(const std::string& exhibit, const std::string& paper_reference);

/// "123.4 Mbps"-style formatting helpers.
std::string fmt1(double v);
std::string fmt2(double v);
std::string fmt_int(double v);

}  // namespace gridvc::bench
