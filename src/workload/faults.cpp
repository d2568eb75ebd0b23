#include "workload/faults.hpp"

#include <utility>

#include "common/error.hpp"

namespace gridvc::workload {

using recovery::FaultScheduleInjector;
using recovery::FaultTargetKind;

FaultScheduleInjector inject_faults(sim::Simulator& sim, recovery::FaultSchedule schedule,
                                    FaultTargets targets,
                                    FaultScheduleInjector::FaultFn after_down,
                                    FaultScheduleInjector::FaultFn after_up) {
  for (const recovery::FaultWindow& w : schedule.windows) {
    GRIDVC_REQUIRE(w.kind != FaultTargetKind::kLink || w.target < targets.links.size(),
                   "fault schedule names an unknown link target");
    GRIDVC_REQUIRE(w.kind != FaultTargetKind::kServer || w.target < targets.servers.size(),
                   "fault schedule names an unknown server target");
  }
  auto down = [targets, after = std::move(after_down)](FaultTargetKind kind,
                                                       std::uint64_t target) {
    switch (kind) {
      case FaultTargetKind::kLink:
        targets.network.set_link_state(targets.links[target], false);
        targets.idc.handle_link_failure(targets.links[target]);
        break;
      case FaultTargetKind::kServer:
        targets.engine.handle_server_down(targets.servers[target]);
        break;
      case FaultTargetKind::kIdc:
        targets.idc.begin_outage();
        break;
    }
    if (after) after(kind, target);
  };
  auto up = [targets = std::move(targets), after = std::move(after_up)](
                FaultTargetKind kind, std::uint64_t target) {
    switch (kind) {
      case FaultTargetKind::kLink:
        targets.network.set_link_state(targets.links[target], true);
        targets.idc.restore_link(targets.links[target]);
        break;
      case FaultTargetKind::kServer:
        targets.engine.handle_server_up(targets.servers[target]);
        break;
      case FaultTargetKind::kIdc:
        targets.idc.end_outage();
        break;
    }
    if (after) after(kind, target);
  };
  return FaultScheduleInjector(sim, std::move(schedule), std::move(down), std::move(up));
}

}  // namespace gridvc::workload
