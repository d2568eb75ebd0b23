// Deterministic chaos harness: seeded multi-layer fault schedules +
// cross-layer invariant checking + automatic schedule shrinking.
//
// The robustness story of the preceding layers (engine restart markers,
// IDC re-signaling, service journal replay, overload shedding) is only
// credible if the *composition* survives arbitrary interleavings of
// link faults, server crashes, control-plane outages, and a service
// process crash. run_chaos() builds the two-span WAN used by the
// faulty-wan scenario, drives a managed task workload across it under a
// pre-generated recovery::FaultSchedule, and then audits invariants
// that must hold for every seed:
//
//   - byte conservation: every submitted transfer either delivers
//     exactly its size or fails permanently inside the abort budget
//   - no orphan circuits or calendar bookings after drain
//   - no transfer abort left without a retry or terminal record
//   - every gauge (queued/active tasks, active/waiting transfers,
//     active circuits) returns to zero at drain
//   - trace event counts agree with the metrics counters
//   - the trace obeys every lifecycle rule of obs::TraceAudit, the rules
//     gridvc-trace-check enforces (server, IDC-outage, session and
//     ticket pairing, timestamps in order)
//   - every accepted front-end ticket resolves exactly once, through a
//     service crash too, and tenant isolation / no-starvation hold
//
// Because the fault plan is data (not online RNG draws), a failing seed
// is replayable byte-for-byte and shrinkable: shrink_chaos_schedule()
// runs ddmin over the windows until the repro is 1-minimal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "frontend/admission.hpp"
#include "obs/trace.hpp"
#include "recovery/fault_schedule.hpp"

namespace gridvc::workload {

struct ChaosConfig {
  std::size_t task_count = 8;
  std::size_t files_per_task = 4;
  Bytes file_size = 16 * GiB;
  Seconds task_interarrival = 90.0;
  int streams = 8;
  int max_aborts = 10;  ///< engine per-transfer abort budget
  BitsPerSecond circuit_rate = gbps(4);
  /// Request circuits as malleable (volume-preserving shaped profiles)
  /// instead of fixed-window. Off by default so existing seeds replay
  /// byte-identically; the malleable battery proves digests stay
  /// thread-count-invariant with shaping, defrag, and reroute active.
  bool malleable_reservations = false;

  // Overload guard under test: every tenant queue of the front-end.
  std::size_t queue_limit = 3;  ///< 0 = unbounded (disables shedding)
  frontend::OverloadPolicy overload_policy = frontend::OverloadPolicy::kShedOldest;
  Seconds task_deadline = 0.0;  ///< per-task deadline when > 0

  /// Every submission goes through the multi-tenant admission front-end
  /// (at least one tenant): tenant k of N has DRR weight k+1 and one
  /// long-lived session, task k belongs to tenant k % N, and each tenant
  /// queue is bounded by queue_limit/overload_policy. With N > 1 the last
  /// tenant gets a one-task queued-bytes quota so rejections are
  /// exercised. One tenant is the single bounded queue.
  std::size_t tenants = 1;

  // Fault processes (mtbf <= 0 disables a layer).
  Seconds link_mtbf = 400.0;
  Seconds link_mttr = 30.0;
  Seconds server_mtbf = 900.0;
  Seconds server_mttr = 60.0;
  Seconds idc_mtbf = 1200.0;
  Seconds idc_mttr = 45.0;
  Seconds fault_start_after = 10.0;
  Seconds fault_horizon = 3600.0;

  /// When > 0, the transfer service crashes at this time and recovers
  /// from its journal (tasks resume from their progress checkpoints).
  Seconds service_crash_at = 0.0;

  /// Optional tee for the run's trace stream (single runs only).
  obs::TraceSink* trace_sink = nullptr;
  /// Replay this exact schedule instead of generating one from the seed
  /// (used by shrinking). Must outlive the run.
  const recovery::FaultSchedule* schedule_override = nullptr;
  /// Deliberately emit an unaccounted task_shed trace event on every
  /// server-down window. Breaks the trace/metrics consistency invariant
  /// on purpose — proves the harness catches violations and gives the
  /// shrinker something to minimize.
  bool sabotage = false;
};

struct ChaosViolation {
  std::string invariant;  ///< short invariant name, e.g. "byte-conservation"
  std::string detail;
};

struct ChaosResult {
  recovery::FaultSchedule schedule;  ///< the schedule that was replayed
  std::vector<ChaosViolation> violations;

  std::uint64_t transfers_submitted = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t transfers_failed = 0;
  std::uint64_t aborted_attempts = 0;
  std::uint64_t tasks_shed = 0;  ///< missed deadlines (front-end sheds: front_shed)
  std::uint64_t tasks_recovered = 0;
  std::uint64_t server_crashes = 0;
  std::uint64_t idc_outages = 0;
  std::uint64_t link_downs = 0;
  std::uint64_t circuits_granted = 0;
  std::uint64_t outage_rejections = 0;
  /// Front-end accounting, summed over tenants.
  std::uint64_t front_accepted = 0;
  std::uint64_t front_rejected = 0;
  std::uint64_t front_shed = 0;
  std::uint64_t trace_events = 0;
  Seconds end_time = 0.0;

  /// One-line deterministic fingerprint of the run: identical for
  /// identical (config, seed) regardless of host thread count. Batteries
  /// compare digests across --threads to prove replay determinism.
  std::string digest;

  bool ok() const { return violations.empty(); }
};

/// One seeded chaos run: generate (or replay) the fault schedule, drive
/// the workload to drain, check every invariant.
ChaosResult run_chaos(const ChaosConfig& config, std::uint64_t seed);

/// Parallel replication battery over seeds base_seed .. base_seed+count-1.
/// Requires a null trace_sink and no schedule_override.
std::vector<ChaosResult> run_chaos_battery(const ChaosConfig& config,
                                           std::uint64_t base_seed, std::size_t count);

/// ddmin the failing run's schedule to a 1-minimal window set that still
/// violates an invariant. Requires that (config, seed) fails.
recovery::FaultSchedule shrink_chaos_schedule(const ChaosConfig& config,
                                              std::uint64_t seed);

}  // namespace gridvc::workload
