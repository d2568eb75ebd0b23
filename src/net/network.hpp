// Flow-level network engine.
//
// The engine simulates elastic data flows over the Topology in a
// discrete-event fashion: a flow-set change (arrival, completion, abort,
// a cap/guarantee update, a link going down or up) marks the allocation
// stale, and one pass per simulator callback recomputes the max-min fair
// allocation (fair_share.hpp) once that callback returns
// (Simulator::defer) — one GridFTP event that finishes a stripe, shifts
// both servers' shares and starts the next file pays one pass, not one
// per change. Every event therefore still starts from an exact
// allocation. Outside any callback (set-up code, the daemon's request
// handling, tests) a change recomputes at once.
//
// A pass diffs the new allocation against the old one: only flows whose
// rate actually changed are settled (byte progress and per-link byte
// counters) and have their completion event cancelled and rescheduled. A
// flow whose rate is untouched keeps its already scheduled completion —
// its absolute ETA is invariant while the rate holds — so an arrival or
// completion costs O(affected flows) event churn, not O(all flows).
// Per-link cumulative byte counters feed the SNMP collector, which is how
// Tables X–XIII are regenerated.
//
// This is the standard fluid approximation for WAN-scale transfer studies:
// packet-level effects enter only through the TCP model's demand caps and
// slow-start penalty (see tcp_model.hpp and the transfer engine).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/id_slab.hpp"
#include "common/inline_function.hpp"
#include "common/units.hpp"
#include "net/fair_share.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace gridvc::net {

using FlowId = std::uint64_t;

/// How a flow left the network.
enum class FlowOutcome : std::uint8_t {
  kCompleted,  ///< delivered every byte
  kFailed,     ///< killed mid-flight by a link failure (fail_on_link_down)
};

/// Summary of a finished flow, passed to its completion callback.
struct FlowRecord {
  FlowId id = 0;
  Bytes size = 0;
  Bytes delivered = 0;  ///< bytes on the wire before completion or failure
  Seconds start_time = 0.0;
  Seconds end_time = 0.0;
  FlowOutcome outcome = FlowOutcome::kCompleted;
  /// Average achieved rate, size / (end - start).
  BitsPerSecond average_rate() const { return achieved_rate(size, end_time - start_time); }
};

/// Per-flow tuning knobs at start time.
struct FlowOptions {
  BitsPerSecond cap = 0.0;        ///< demand ceiling; <= 0 means unbounded
  BitsPerSecond guarantee = 0.0;  ///< reserved VC rate (0 = best effort)
  /// When true, a link failure on the flow's path aborts the flow and
  /// fires the completion callback with FlowOutcome::kFailed (GridFTP
  /// data channels want the error so they can cut a restart marker).
  /// When false (default) the flow merely stalls at rate 0 until the
  /// link is repaired — the behavior of long-lived cross traffic.
  bool fail_on_link_down = false;
};

class Network {
 public:
  /// Stored inline in the flow record (no heap per flow).
  using CompletionFn = InlineFunction<void(const FlowRecord&)>;

  Network(sim::Simulator& sim, Topology topology);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return topo_; }
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }

  /// Inject a flow of `size` bytes along `path` (copied into the flow's
  /// reused record). `on_complete` (may be null) fires when the last byte
  /// is delivered. Requires a non-empty valid path and size > 0.
  FlowId start_flow(const Path& path, Bytes size, FlowOptions options,
                    CompletionFn on_complete);

  /// Change a flow's demand cap (e.g. the sending server's per-transfer
  /// share changed). <= 0 removes the cap.
  void update_cap(FlowId id, BitsPerSecond cap);

  /// Batched form of update_cap: apply every (flow, cap) pair, then mark
  /// the allocation stale once if anything changed. Server registration
  /// changes shift the share of *every* in-flight transfer at once; inside
  /// a callback the caps share that callback's one pass either way, but
  /// outside any callback pushing them one by one would pay one allocator
  /// pass per flow.
  void update_caps(const std::vector<std::pair<FlowId, BitsPerSecond>>& caps);

  /// Change a flow's reserved rate (e.g. its VC was set up or torn down
  /// mid-flow).
  void update_guarantee(FlowId id, BitsPerSecond guarantee);

  /// Remove a flow before completion; no callback fires.
  void abort_flow(FlowId id);

  /// Take a link down or bring it back up. Going down: the link's
  /// capacity drops to zero, flows that opted into fail_on_link_down and
  /// cross it are removed with FlowOutcome::kFailed (callback fires with
  /// the bytes delivered so far), and everything else crossing it stalls.
  /// Coming up: stalled flows are re-allocated. Idempotent per state.
  void set_link_state(LinkId id, bool up);

  /// Current up/down state of a link (links start up).
  bool link_up(LinkId id) const;

  /// Instantaneous allocated rate of an active flow. Inside a callback
  /// that changed the flow set, runs the pending pass first, so the rate
  /// is that of the flows as they stand.
  BitsPerSecond current_rate(FlowId id);

  /// Bytes still to deliver for an active flow (settled to now()).
  Bytes remaining_bytes(FlowId id);

  /// Bytes already delivered for an active flow (settled to now()).
  Bytes sent_bytes(FlowId id);

  /// Ids of all currently active flows, ascending. Traffic-engineering
  /// components poll this to discover flows worth watching.
  std::vector<FlowId> active_flows() const;

  /// Total size of an active flow.
  Bytes flow_size(FlowId id) const;

  std::size_t active_flow_count() const { return flows_.size(); }

  /// Whether `id` is still in flight. A link failure removes every flow
  /// it kills before it fires their callbacks, so an earlier callback can
  /// see a flow that is already gone.
  bool has_flow(FlowId id) const { return flows_.contains(id); }

  /// Cumulative bytes carried by a directed link, settled to now().
  /// The SNMP collector samples this.
  double link_bytes(LinkId id);

  /// Bring byte accounting up to the current simulation time.
  void settle();

 private:
  struct ActiveFlow {
    Path path;
    Bytes size = 0;
    double bytes_remaining = 0.0;
    BitsPerSecond cap = 0.0;
    BitsPerSecond guarantee = 0.0;
    BitsPerSecond rate = 0.0;
    Seconds start_time = 0.0;
    Seconds last_update = 0.0;  ///< bytes_remaining is settled to this time
    bool fail_on_link_down = false;
    CompletionFn on_complete;
    sim::EventHandle completion;
  };

  // Advance one flow's byte progress (and its links' counters) to `now`.
  // Flows settle lazily at their own pace: progress is linear while the
  // rate holds, so only rate changes and reads force a settle.
  void settle_flow(ActiveFlow& f, Seconds now);
  // Marks the allocation stale and requests one pass after the running
  // callback (at once outside any callback).
  void reallocate();
  void recompute();
  void complete_flow(FlowId id);

  sim::Simulator& sim_;
  Topology topo_;
  // Iterates in FlowId order -> deterministic allocation. Records are
  // reused, so a flow's path copy lands in a buffer that is already there.
  IdSlab<FlowId, ActiveFlow> flows_;
  std::vector<double> link_bytes_;
  std::vector<double> link_rate_scratch_;  ///< reused per recompute
  // Reused allocator inputs/scratch: recompute() performs zero heap
  // allocations once these reach the steady-state flow count.
  AllocWorkspace alloc_ws_;
  std::vector<FlowDemandRef> demand_scratch_;
  std::vector<char> link_up_;              ///< per-link up/down state
  std::vector<Seconds> link_down_since_;   ///< valid while the link is down
  FlowId next_id_ = 1;
  obs::MetricId id_recomputes_;
  obs::MetricId id_rate_changes_;
  obs::MetricId id_flows_started_;
  obs::MetricId id_flows_completed_;
  obs::MetricId id_flows_aborted_;
  obs::MetricId id_flows_failed_;
  obs::MetricId id_active_flows_;
  obs::MetricId id_link_utilization_;
  obs::MetricId id_link_failures_;
  obs::MetricId id_link_repairs_;
  obs::MetricId id_link_downtime_;
  bool stale_ = false;  ///< the flow set changed since the last pass
  sim::DeferredTask pass_{[this] {
    if (stale_) recompute();
  }};
};

}  // namespace gridvc::net
