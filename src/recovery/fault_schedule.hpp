// Deterministic multi-layer fault schedules: the one way faults enter a
// run.
//
// A FaultSchedule is the whole fault plan as data, fixed before the run
// starts — a sorted list of down/up windows over three target kinds
// (link, server, IDC) — so a failing run is replayable and shrinkable.
// It is generated from exec::stream_rng streams, so every (kind, target)
// process is independent of the others and of thread count.
//
// The FaultScheduleInjector pre-schedules one down and one up event per
// window; *what* a fault means is the caller's wiring. The scenarios
// share one mapping, workload::inject_faults: a link window goes to
// Network::set_link_state and then Idc::handle_link_failure, a server
// window to TransferEngine::handle_server_down/up, an IDC window to the
// outage begin/end.
//
// shrink_schedule() is ddmin over the window list: given a predicate
// "this schedule still fails", it deletes chunks, then single windows,
// until no single window can be removed — the classic 1-minimal repro.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace gridvc::recovery {

enum class FaultTargetKind : std::uint8_t { kLink, kServer, kIdc };

/// One outage window on one target. Windows of the same (kind, target)
/// never overlap in a generated schedule.
struct FaultWindow {
  FaultTargetKind kind = FaultTargetKind::kLink;
  std::uint64_t target = 0;  ///< link id / server index / ignored for kIdc
  Seconds down_at = 0.0;
  Seconds up_at = 0.0;  ///< may lie past the horizon: every fault heals

  friend bool operator==(const FaultWindow&, const FaultWindow&) = default;
};

struct FaultSchedule {
  std::vector<FaultWindow> windows;  ///< sorted by (down_at, kind, target)

  std::size_t count(FaultTargetKind kind) const;
};

/// Per-kind exponential MTBF/MTTR processes; mtbf <= 0 disables a kind.
struct FaultScheduleSpec {
  std::size_t link_count = 0;    ///< link targets are 0 .. link_count-1
  std::size_t server_count = 0;  ///< server targets are 0 .. server_count-1
  bool idc = false;              ///< include an IDC outage process
  Seconds start_after = 0.0;     ///< no failures before this time
  Seconds horizon = 1800.0;      ///< no failures at or after this time
  Seconds link_mtbf = 0.0;
  Seconds link_mttr = 30.0;
  Seconds server_mtbf = 0.0;
  Seconds server_mttr = 60.0;
  Seconds idc_mtbf = 0.0;
  Seconds idc_mttr = 60.0;
};

/// Generate the full schedule for (spec, seed). Each (kind, target)
/// process draws from its own exec::stream_rng stream, so adding or
/// removing a kind never shifts another kind's windows.
FaultSchedule generate_fault_schedule(const FaultScheduleSpec& spec, std::uint64_t seed);

/// Replays a FaultSchedule against caller-supplied down/up callbacks.
/// All events are scheduled at construction; destruction cancels any
/// that have not fired yet, so the injector may die before the run ends.
class FaultScheduleInjector {
 public:
  using FaultFn = std::function<void(FaultTargetKind, std::uint64_t target)>;

  /// Requires per-target windows to be non-overlapping (generated
  /// schedules and their shrunk subsets always are).
  FaultScheduleInjector(sim::Simulator& sim, FaultSchedule schedule, FaultFn on_down,
                        FaultFn on_up);
  ~FaultScheduleInjector();
  FaultScheduleInjector(const FaultScheduleInjector&) = delete;
  FaultScheduleInjector& operator=(const FaultScheduleInjector&) = delete;

  struct Stats {
    std::uint64_t downs = 0;
    std::uint64_t ups = 0;
  };
  const Stats& stats() const { return stats_; }
  const FaultSchedule& schedule() const { return schedule_; }

 private:
  sim::Simulator& sim_;
  FaultSchedule schedule_;
  FaultFn on_down_;
  FaultFn on_up_;
  Stats stats_;
  std::vector<sim::EventHandle> pending_;
};

/// ddmin over `failing.windows`: returns a 1-minimal schedule for which
/// `still_fails` holds (removing any single remaining window makes the
/// failure disappear). `still_fails(failing)` must be true on entry.
/// Deterministic: the reduction order depends only on the input.
FaultSchedule shrink_schedule(const FaultSchedule& failing,
                              const std::function<bool(const FaultSchedule&)>& still_fails);

}  // namespace gridvc::recovery
