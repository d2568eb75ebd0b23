// Max-min fair bandwidth allocation with rate guarantees.
//
// The flow-level network model assigns each active flow a rate via
// progressive filling:
//
//   1. Guaranteed (virtual-circuit) flows are allocated
//      min(guarantee, demand cap) off the top of each link they traverse —
//      that is the OSCARS rate guarantee.
//   2. Remaining capacity is shared max-min among all flows (guaranteed
//      flows may also claim idle headroom beyond their guarantee, matching
//      the paper's observation that a VC "allows for shared usage of
//      assigned capacity" — idle VC bandwidth is not wasted).
//
// Each flow can carry a demand cap (from the TCP window model or the
// sending server's per-transfer share); a flow never receives more than
// its cap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace gridvc::net {

/// Input to the allocator: one entry per active flow.
struct FlowDemand {
  Path path;                      ///< directed links traversed
  BitsPerSecond cap = 0.0;        ///< demand ceiling (<=0 means unbounded)
  BitsPerSecond guarantee = 0.0;  ///< reserved VC rate (0 for best-effort)
};

/// Borrowed-path demand for the zero-allocation hot path: the caller
/// owns the Path storage and keeps it alive across the call (Network's
/// ActiveFlow records do exactly that).
struct FlowDemandRef {
  const Path* path = nullptr;
  BitsPerSecond cap = 0.0;
  BitsPerSecond guarantee = 0.0;
};

/// Computed allocation, one rate per input flow (same order).
struct Allocation {
  std::vector<BitsPerSecond> rates;
};

/// Caller-owned scratch state for max_min_allocate. Every per-link and
/// per-flow working array lives here, so a reused workspace performs zero
/// heap allocations per call once its vectors have grown to the
/// steady-state flow/link counts (pinned by the allocator
/// microbenchmark). Treat the members as opaque except the outputs
/// `rates` and `used_links`.
///
/// The layout is structure-of-arrays: per-flow state (rates, cap limits)
/// and per-link state (residual, counts) live in flat parallel arrays,
/// and every flow's path is flattened into one CSR index
/// (`path_off`/`path_lnk`) built once per call — the fill and freeze
/// loops walk contiguous memory instead of chasing a separate
/// heap-allocated std::vector<LinkId> per flow per iteration.
///
/// The per-link arrays span the whole topology but a call initialises
/// and scans them only at `used_links`, so its cost follows the links
/// the flows cross, not the size of the topology.
struct AllocWorkspace {
  std::vector<BitsPerSecond> rates;  ///< output: one rate per input flow
  /// output: the distinct links the input flows cross, ascending.
  std::vector<LinkId> used_links;

  // Internal scratch. Per-link arrays are valid only at used_links.
  std::vector<double> residual;        // per link: unallocated capacity
  std::vector<double> guarantee_load;  // per link: sum of guarantees
  std::vector<double> link_scale;      // per link: oversubscription scale
  std::vector<std::uint32_t> active_on_link;  // per link: unfrozen crossers
  std::vector<std::uint32_t> link_epoch;      // per link: last call that used it
  std::uint32_t epoch = 0;                    // this call's stamp
  std::vector<double> cap_limit;              // per flow: cap, +inf when unbounded
  std::vector<std::uint32_t> active_idx;      // dense index of active flows
  std::vector<std::uint32_t> path_off;        // CSR offsets, nflows + 1
  std::vector<std::uint32_t> path_lnk;        // CSR flattened link ids
};

/// Compute the allocation for `flows` over `topo`.
///
/// Guarantees are honored first (clipped to link capacity if operators
/// oversubscribed a link — the allocator scales guarantees down
/// proportionally on any link where their sum exceeds capacity, which the
/// admission control in src/vc/ prevents in normal operation). The residual
/// capacity is then distributed by progressive filling: all unfrozen flows
/// receive equal increments until they hit their cap or a saturated link.
Allocation max_min_allocate(const Topology& topo, const std::vector<FlowDemand>& flows);

/// As above, with per-link up/down state: `link_up` holds one entry per
/// link (nonzero = up). A down link contributes zero capacity, so crossing
/// flows freeze at rate 0 and any guarantees over it scale to nothing. An
/// empty vector means every link is up.
Allocation max_min_allocate(const Topology& topo, const std::vector<FlowDemand>& flows,
                            const std::vector<char>& link_up);

/// Allocation hot path: identical semantics to the vector overloads, but
/// paths are borrowed and all scratch state lives in `ws` — zero heap
/// allocations per call once the workspace is warm. Paths are flattened
/// into the workspace's CSR index up front, progressive filling iterates
/// a dense active-flow list that compacts in stable order as flows
/// freeze, and per-link active-flow counts are maintained incrementally
/// (decrementing just the frozen flow's links) instead of recounting
/// every flow's path each iteration. Every per-link loop runs over
/// `ws.used_links` only. Returns `ws.rates`.
const std::vector<BitsPerSecond>& max_min_allocate(const Topology& topo,
                                                   std::span<const FlowDemandRef> flows,
                                                   const std::vector<char>& link_up,
                                                   AllocWorkspace& ws);

}  // namespace gridvc::net
