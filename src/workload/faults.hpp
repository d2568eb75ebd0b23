// The fault-to-layer mapping: what one window of a recovery::FaultSchedule
// does to a simulated stack. Every scenario that injects faults (faulty-wan
// and the chaos harness) replays its schedule through inject_faults, so a
// fault means the same thing in each of them.
#pragma once

#include <vector>

#include "gridftp/transfer_engine.hpp"
#include "net/network.hpp"
#include "recovery/fault_schedule.hpp"
#include "vc/idc.hpp"

namespace gridvc::workload {

/// The stack a fault schedule acts on. Link target i is links[i] and
/// server target i is servers[i]; the IDC process has one target.
struct FaultTargets {
  net::Network& network;
  vc::Idc& idc;
  gridftp::TransferEngine& engine;
  std::vector<net::LinkId> links;
  std::vector<gridftp::Server*> servers;
};

/// Replays `schedule` onto `targets`:
/// - a link goes down in the Network first, so its flows stall or abort,
///   and then Idc::handle_link_failure fails the circuits crossing it; on
///   the way up the Network brings it back before Idc::restore_link lets
///   circuits route over it again;
/// - a server crashes and restarts through
///   TransferEngine::handle_server_down/up;
/// - the IDC runs begin_outage/end_outage.
/// `after_down`/`after_up`, if set, run once a window's transition has
/// been applied. Throws PreconditionError, before anything is scheduled,
/// when a window names a link or server target that `targets` lacks.
recovery::FaultScheduleInjector inject_faults(
    sim::Simulator& sim, recovery::FaultSchedule schedule, FaultTargets targets,
    recovery::FaultScheduleInjector::FaultFn after_down = nullptr,
    recovery::FaultScheduleInjector::FaultFn after_up = nullptr);

}  // namespace gridvc::workload
