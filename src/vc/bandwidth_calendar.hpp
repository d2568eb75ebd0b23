// Advance-reservation bandwidth bookkeeping.
//
// OSCARS-style dynamic circuit service accepts reservations of a given
// rate over a future [start, end) window (§II: "advance-reservation
// service is required when the requested circuit rate is a significant
// portion of link capacity if the network is to be operated at high
// utilization and with low call blocking probability"). The calendar
// tracks, per link, the piecewise-constant sum of reserved rates over
// time, and admits a new reservation only if the peak reserved rate over
// its window stays within the link's reservable capacity.
//
// Every booking is a step profile (Chen & Primet's flexible
// reservation): time-ascending, non-overlapping (start, end, rate)
// segments. The paper's rigid (start, end, bandwidth) block is the
// one-segment case, and the flat overloads below only wrap one segment.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/hugepage_alloc.hpp"
#include "common/units.hpp"
#include "net/topology.hpp"
#include "vc/reservation.hpp"

namespace gridvc::vc {

using ReservationId = std::uint64_t;

/// Fixed-point reserved rate: integer kbit/s. All calendar arithmetic is
/// exact in this representation, so a release always cancels its booking
/// to the bit — no float dust can accumulate over any number of
/// book/release cycles.
using RateKbps = std::int64_t;

/// Quantize a bits/s rate onto the calendar's kbit/s grid: round to
/// nearest, but never below one quantum, so every positive rate stays
/// visible and add/remove with the same argument cancel exactly.
inline RateKbps quantize_rate_kbps(BitsPerSecond rate) {
  const RateKbps q = std::llround(rate / 1000.0);
  return q > 0 ? q : 1;
}

/// Piecewise-constant reserved-rate profile of one link.
///
/// The profile is a delta encoding (change in reserved rate at each time
/// point) stored in an augmented B+ tree keyed by time. Every subtree
/// carries two aggregates — the sum of its deltas and the maximum
/// non-empty prefix sum of its in-order delta sequence — so a point
/// update is O(log n) and `peak(start, end)` decomposes the window into
/// O(log n) subtrees whose aggregates answer "highest level reached
/// inside" without sweeping. Wide nodes (32 entries / 32 children, laid
/// out as per-field arrays) keep the hot search path to a handful of
/// sequential cache lines per level: at one million reservations a walk
/// touches ~5 nodes instead of the ~21 dependent cache misses a binary
/// tree would take, which is what keeps the admit/free scale curve flat.
/// Rates are held as integer kbit/s (see RateKbps), which makes
/// add/remove cancellation exact: a balanced sequence of operations
/// always returns the tree to empty.
class BandwidthProfile {
 public:
  /// Add `rate` over [start, end). Requires start < end and rate > 0.
  void add(Seconds start, Seconds end, BitsPerSecond rate);

  /// Remove a previously added block (exact inverse of add).
  /// Requires start < end and rate > 0.
  void remove(Seconds start, Seconds end, BitsPerSecond rate);

  /// Peak reserved rate over [start, end). The empty window [t, t)
  /// contains no instant, so its peak is 0.
  BitsPerSecond peak(Seconds start, Seconds end) const;

  /// Reserved rate at instant `t`.
  BitsPerSecond at(Seconds t) const;

  /// Visit every change point with key in [start, end), in time order.
  /// The shaping pass uses this to discretize a window at the points
  /// where headroom can change; tests use it to compare calendar state
  /// exactly (the delta sequence IS the profile, bit for bit).
  void for_each_delta(Seconds start, Seconds end,
                      const std::function<void(Seconds, RateKbps)>& fn) const;

  /// True when nothing is reserved at any time.
  bool empty() const { return entry_count_ == 0; }

  /// Live change points in the tree. Balanced add/remove sequences
  /// return this to 0; the float-dust regression test pins that bound.
  std::size_t node_count() const { return entry_count_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr RateKbps kNoLevel = std::numeric_limits<RateKbps>::min() / 2;
  // Wide nodes: a leaf holds up to 32 (time, delta) entries, an inner
  // node up to 32 children. Minimum fills are chosen so that merging two
  // minimal siblings leaves room for one more insert (2 * min < cap),
  // which lets apply() rebalance preemptively on the way down — it never
  // knows until the leaf whether the op inserts or erases.
  static constexpr int kLeafCap = 32;
  static constexpr int kLeafMin = 12;
  static constexpr int kInnerCap = 32;
  static constexpr int kInnerMin = 12;

  /// Sorted run of change points. Aggregates live in the parent; the
  /// root-is-leaf case recomputes them on the fly (O(kLeafCap)).
  struct Leaf {
    std::uint16_t n = 0;
    std::uint32_t next_free = kNil;  ///< free-list link while the leaf is free
    Seconds key[kLeafCap];
    RateKbps delta[kLeafCap];
  };

  /// Routing node. Per-child copies of the subtree aggregates (delta sum
  /// and max non-empty prefix sum) and the subtree's max key make both
  /// the point-update descent and the peak range query touch only nodes
  /// on the boundary paths; fully covered children are O(1) reads here.
  /// The per-child fields are interleaved (32 bytes, two per cache line)
  /// so a routing scan is one sequential stream and the chosen child's
  /// aggregates share a line with the key that selected it.
  struct ChildRef {
    Seconds max_key;
    RateKbps sum;
    RateKbps maxp;
    std::uint32_t child;
  };
  struct Inner {
    std::uint16_t n = 0;      // child count
    bool child_leaf = false;  // true when children are leaves
    std::uint32_t next_free = kNil;  ///< free-list link while the node is free
    ChildRef ent[kInnerCap];
  };

  std::uint32_t alloc_leaf();
  std::uint32_t alloc_inner();
  void free_leaf(std::uint32_t id);
  void free_inner(std::uint32_t id);

  /// Recompute parent->(max_key, sum, maxp) for child slot `i` from the
  /// child node itself.
  void refresh_child_meta(Inner& parent, int i) const;
  /// Index of the child that owns key `t` (first child with
  /// max_key >= t, else the last child).
  static int pick_child(const Inner& nd, Seconds t);

  /// Split the full child `i` of `parent` in two (child keeps the lower
  /// half). Grows the slabs; callers must refetch references.
  void split_child(std::uint32_t parent_id, int i);
  /// Restore slack to child `i` sitting at minimum fill: borrow one
  /// entry/child from a sibling, or merge with it when it is minimal too.
  void fix_child(std::uint32_t parent_id, int i);

  /// Add `d` to the delta at `t`, inserting or erasing the entry as
  /// needed; recursive arm over inner nodes.
  void apply_inner(std::uint32_t node_id, Seconds t, RateKbps d);
  void apply_leaf(std::uint32_t leaf_id, Seconds t, RateKbps d);
  void apply_delta(Seconds t, RateKbps d);

  /// Sum of deltas with key <= t (the level in force at instant t).
  RateKbps level_at(Seconds t) const;
  /// One-walk window query: `best` is the max level over change points
  /// with key strictly in (lo, hi) (kNoLevel when none), `entry` the
  /// level in force at instant lo. `base` is the level just before this
  /// subtree's first key; the left boundary path of the range
  /// decomposition doubles as the entry-level walk, so peak() costs a
  /// single descent instead of two.
  struct WindowLevels {
    RateKbps best;
    RateKbps entry;
  };
  WindowLevels window_levels(std::uint32_t node_id, bool is_leaf, Seconds lo, Seconds hi,
                             RateKbps base) const;

  // Slabs of 2 MiB and more are hugepage-backed: at scale they dominate
  // the working set and 2 MiB pages keep the descent off the
  // page-walker. Smaller ones, which is most links' trees, come from the
  // heap (see common/hugepage_alloc.hpp).
  std::vector<Leaf, HugePageAllocator<Leaf>> leaves_;    // slab; index = leaf id
  std::vector<Inner, HugePageAllocator<Inner>> inners_;  // slab; index = inner id
  // Free nodes are chained through their next_free fields (last freed
  // first), so freeing a node allocates nothing.
  std::uint32_t free_leaf_ = kNil;
  std::uint32_t free_inner_ = kNil;
  std::uint32_t root_ = kNil;
  bool root_leaf_ = true;
  std::size_t entry_count_ = 0;
};

/// Per-topology calendar over all links.
class BandwidthCalendar {
 public:
  /// `reservable_fraction` caps how much of each link's capacity circuits
  /// may claim (providers keep headroom for IP-routed traffic).
  explicit BandwidthCalendar(const net::Topology& topo, double reservable_fraction = 1.0);

  /// Max rate still reservable on `link` everywhere in [start, end).
  /// The empty window [t, t) has the full reservable capacity available.
  BitsPerSecond available(net::LinkId link, Seconds start, Seconds end) const;

  /// True iff every segment of `profile` fits on every link of `path`.
  /// Segments do not compete with each other, so they must not overlap
  /// (book requires that).
  bool fits(const net::Path& path, std::span<const RateSegment> profile) const;

  /// fits() of the one flat block [start, end) at `rate`.
  bool fits(const net::Path& path, Seconds start, Seconds end, BitsPerSecond rate) const {
    const RateSegment block{start, end, rate};
    return fits(path, {&block, 1});
  }

  /// Book `profile` on every link of `path`: one slab entry, N profile
  /// deltas. Returns a booking id used for release. Segments must be
  /// time-ascending and non-overlapping with start < end and rate > 0,
  /// and the profile must fit: booking one that does not throws.
  ReservationId book(const net::Path& path, std::span<const RateSegment> profile);

  /// book() of the one flat block [start, end) at `rate`.
  ReservationId book(const net::Path& path, Seconds start, Seconds end, BitsPerSecond rate) {
    const RateSegment block{start, end, rate};
    return book(path, {&block, 1});
  }

  /// Release a booking in full. Not idempotent: releasing an unknown or
  /// already-released id throws, so double releases surface as bugs
  /// instead of silently unbalancing the calendar. An early teardown
  /// releases too: the elapsed head of a window blocks no future
  /// admission.
  void release(ReservationId id);

  /// Stepwise headroom over [start, end) on `path`: at each instant the
  /// minimum across links of (reservable capacity - reserved rate),
  /// broken at every change point of any link's profile and with equal
  /// adjacent pieces merged. This is the input the malleable shaper
  /// packs volume into.
  std::vector<RateSegment> headroom_profile(const net::Path& path, Seconds start,
                                            Seconds end) const;

  /// The segments a live booking holds (one for a flat block). A caller
  /// that releases a booking and may have to put it back copies these
  /// first: the id goes stale on release.
  const std::vector<RateSegment>& booking_segments(ReservationId id) const;

  /// Full delta sequence (time, kbit/s change) of one link's profile.
  /// Deterministic and exact — two calendars with equal link_deltas on
  /// every link admit exactly the same futures. Tests use this to prove
  /// a rejected admission reinstated prior state byte for byte.
  std::vector<std::pair<Seconds, RateKbps>> link_deltas(net::LinkId link) const;

  std::size_t active_bookings() const { return active_; }

 private:
  /// Slab record for one reservation. Slots are recycled through a free
  /// list; the generation is bumped on every release so stale ids are
  /// rejected, and the path and segment vectors keep their capacity
  /// across reuse, so a steady-state book/release cycle allocates
  /// nothing.
  struct Booking {
    net::Path path;
    std::vector<RateSegment> segments;
    std::uint32_t generation = 0;
    bool live = false;
  };

  /// Ids encode (generation << 32) | (slot + 1): nonzero by construction
  /// (callers use 0 as a "no booking" sentinel), O(1) to resolve, and
  /// impossible to confuse with a recycled slot's newer booking. Returns
  /// the slot of a live booking; any other id fails with `what`.
  std::uint32_t slot_of(ReservationId id, const char* what) const;

  const net::Topology& topo_;
  double reservable_fraction_;
  std::vector<BandwidthProfile> profiles_;  // one per link
  std::vector<Booking> bookings_;           // slab, indexed by slot
  std::vector<std::uint32_t> free_slots_;
  std::size_t active_ = 0;
};

}  // namespace gridvc::vc
