// Scoped wall-clock zone profiler.
//
// Instrumented code declares zones with GRIDVC_PROF_ZONE("net.recompute");
// each zone is an RAII scope timed with the TSC (x86-64) or steady_clock,
// recorded into a per-thread buffer: an aggregate table (call count,
// inclusive/exclusive time, a LogHistogram of inclusive durations) plus a
// bounded ring of recent samples for timeline export. Zone names are
// interned once per call site into small dense ids, so the enabled hot
// path is two clock reads and a few array stores; when the profiler is
// disabled it is a single relaxed atomic load, and building with
// GRIDVC_PROF_DISABLED (cmake -DGRIDVC_PROFILING=OFF) compiles the macro
// away entirely.
//
// Threading: per-thread buffers register themselves in a global list,
// keyed by a lane id the exec thread pool assigns (caller = lane 0,
// worker i = lane i + 1). enable() and collect() must run while no other
// thread is inside a zone — in practice after Simulator::run() or a
// chaos battery returns, when pool workers are idle (polling or parked);
// a pool region's completion handshake makes the workers' buffer writes
// visible. Because
// the exec layer guarantees the same region bodies run regardless of
// thread count, per-zone call counts — and therefore the merged profile
// digest — are byte-identical at any --threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gridvc::obs {

using ZoneId = std::uint32_t;

/// Merged cost of one zone name across every thread buffer.
struct ZoneStat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< inclusive: children counted
  std::uint64_t self_ns = 0;   ///< exclusive: direct child zones subtracted
  double p50_ns = 0.0;         ///< inclusive-duration quantiles (log-bucket)
  double p95_ns = 0.0;
  double p99_ns = 0.0;
};

/// One completed zone instance from a bounded per-thread sample ring.
struct ZoneSample {
  double start_ns = 0.0;  ///< relative to the enable() epoch
  double dur_ns = 0.0;
  ZoneId zone = 0;
  std::uint32_t lane = 0;
  std::uint32_t depth = 0;  ///< nesting depth at entry (0 = top level)
};

struct ProfileReport {
  std::vector<ZoneStat> zones;          ///< sorted by name
  std::vector<ZoneSample> samples;      ///< sorted by start time
  std::vector<std::string> zone_names;  ///< ZoneId -> name for samples
  std::uint64_t dropped_samples = 0;    ///< ring overwrites across all threads
  std::uint32_t lanes = 0;              ///< highest lane seen + 1
  double span_ns = 0.0;                 ///< enable() -> collect() wall span
};

class Profiler {
 public:
  /// Intern a zone name (stable for process lifetime). Called once per
  /// GRIDVC_PROF_ZONE site through a function-local static.
  static ZoneId intern_zone(const std::string& name);
  /// Interned name for an id; "?" when out of range.
  static std::string zone_name(ZoneId id);

  /// Reset every thread buffer and start recording. Quiescence required
  /// (no thread inside a zone).
  static void enable();
  /// Stop recording; buffers keep their contents for collect().
  static void disable();
  static bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

  /// Merge all thread buffers into one report. Quiescence required.
  static ProfileReport collect();

  /// Label the calling thread for merge ordering and timeline tids.
  /// The exec pool assigns worker i -> lane i + 1; lane 0 is the caller.
  static void set_thread_lane(std::uint32_t lane);

  /// Test hook: substitute the tick source; returned ticks are taken as
  /// nanoseconds verbatim (no TSC calibration). nullptr restores the
  /// real clock. A constant-clock fake makes whole reports deterministic.
  static void set_clock_for_test(std::uint64_t (*now_fn)());

  // ProfZone internals — not for direct use.
  static void enter(ZoneId zone);
  static void exit();

 private:
  inline static std::atomic<bool> g_enabled{false};
};

/// RAII zone scope. Captures the enabled flag at entry so a zone that
/// straddles disable() still balances its exit.
class ProfZone {
 public:
  explicit ProfZone(ZoneId zone) : armed_(Profiler::enabled()) {
    if (armed_) Profiler::enter(zone);
  }
  ~ProfZone() {
    if (armed_) Profiler::exit();
  }
  ProfZone(const ProfZone&) = delete;
  ProfZone& operator=(const ProfZone&) = delete;

 private:
  bool armed_;
};

#ifdef GRIDVC_PROF_DISABLED
#define GRIDVC_PROF_ZONE(name) ((void)0)
#else
#define GRIDVC_PROF_CAT2(a, b) a##b
#define GRIDVC_PROF_CAT(a, b) GRIDVC_PROF_CAT2(a, b)
#define GRIDVC_PROF_ZONE(name)                                              \
  static const ::gridvc::obs::ZoneId GRIDVC_PROF_CAT(                       \
      gridvc_prof_zone_id_, __LINE__) =                                     \
      ::gridvc::obs::Profiler::intern_zone(name);                           \
  const ::gridvc::obs::ProfZone GRIDVC_PROF_CAT(gridvc_prof_zone_,          \
                                                __LINE__)(                  \
      GRIDVC_PROF_CAT(gridvc_prof_zone_id_, __LINE__))
#endif

}  // namespace gridvc::obs
