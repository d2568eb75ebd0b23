#include "vc/bandwidth_calendar.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace gridvc::vc {

namespace {
// Reserved-rate comparisons tolerate this much float noise (bits/s).
constexpr double kRateEps = 1e-3;
constexpr Seconds kNegInf = -std::numeric_limits<Seconds>::infinity();

// Fetch every cache line of a node as soon as its identity is known:
// the lines arrive in parallel instead of faulting one after another as
// the scan reaches them, which is most of the latency of a descent once
// the tree outgrows the cache.
inline void prefetch_span(const void* p, std::size_t bytes) {
#if defined(__GNUC__) || defined(__clang__)
  const char* c = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += 64) __builtin_prefetch(c + off);
#else
  (void)p;
  (void)bytes;
#endif
}
}  // namespace

std::uint32_t BandwidthProfile::alloc_leaf() {
  if (free_leaf_ != kNil) {
    const std::uint32_t id = free_leaf_;
    free_leaf_ = leaves_[id].next_free;
    leaves_[id].n = 0;
    return id;
  }
  leaves_.emplace_back();
  return static_cast<std::uint32_t>(leaves_.size() - 1);
}

std::uint32_t BandwidthProfile::alloc_inner() {
  if (free_inner_ != kNil) {
    const std::uint32_t id = free_inner_;
    free_inner_ = inners_[id].next_free;
    inners_[id].n = 0;
    return id;
  }
  inners_.emplace_back();
  return static_cast<std::uint32_t>(inners_.size() - 1);
}

void BandwidthProfile::free_leaf(std::uint32_t id) {
  leaves_[id].next_free = free_leaf_;
  free_leaf_ = id;
}

void BandwidthProfile::free_inner(std::uint32_t id) {
  inners_[id].next_free = free_inner_;
  free_inner_ = id;
}

void BandwidthProfile::refresh_child_meta(Inner& parent, int i) const {
  // Children are never empty when this runs (non-root nodes stay at or
  // above minimum fill; a root leaf has no parent).
  if (parent.child_leaf) {
    const Leaf& L = leaves_[parent.ent[i].child];
    RateKbps sum = 0;
    RateKbps best = kNoLevel;
    for (int k = 0; k < L.n; ++k) {
      sum += L.delta[k];
      best = std::max(best, sum);
    }
    parent.ent[i].max_key = L.key[L.n - 1];
    parent.ent[i].sum = sum;
    parent.ent[i].maxp = best;
  } else {
    const Inner& I = inners_[parent.ent[i].child];
    RateKbps sum = 0;
    RateKbps best = kNoLevel;
    for (int k = 0; k < I.n; ++k) {
      best = std::max(best, sum + I.ent[k].maxp);
      sum += I.ent[k].sum;
    }
    parent.ent[i].max_key = I.ent[I.n - 1].max_key;
    parent.ent[i].sum = sum;
    parent.ent[i].maxp = best;
  }
}

int BandwidthProfile::pick_child(const Inner& nd, Seconds t) {
  int i = 0;
  while (i < nd.n - 1 && nd.ent[i].max_key < t) ++i;
  return i;
}

void BandwidthProfile::split_child(std::uint32_t parent_id, int i) {
  const bool leaf = inners_[parent_id].child_leaf;
  const std::uint32_t left_id = inners_[parent_id].ent[i].child;
  const std::uint32_t right_id = leaf ? alloc_leaf() : alloc_inner();
  Inner& parent = inners_[parent_id];  // refetch: alloc may have grown the slab
  if (leaf) {
    Leaf& L = leaves_[left_id];
    Leaf& R = leaves_[right_id];
    const int keep = L.n / 2;
    R.n = static_cast<std::uint16_t>(L.n - keep);
    for (int k = 0; k < R.n; ++k) {
      R.key[k] = L.key[keep + k];
      R.delta[k] = L.delta[keep + k];
    }
    L.n = static_cast<std::uint16_t>(keep);
  } else {
    Inner& L = inners_[left_id];
    Inner& R = inners_[right_id];
    const int keep = L.n / 2;
    R.n = static_cast<std::uint16_t>(L.n - keep);
    R.child_leaf = L.child_leaf;
    for (int k = 0; k < R.n; ++k) {
      R.ent[k] = L.ent[keep + k];
    }
    L.n = static_cast<std::uint16_t>(keep);
  }
  for (int k = parent.n; k > i + 1; --k) {
    parent.ent[k] = parent.ent[k - 1];
  }
  ++parent.n;
  parent.ent[i + 1].child = right_id;
  refresh_child_meta(parent, i);
  refresh_child_meta(parent, i + 1);
}

void BandwidthProfile::fix_child(std::uint32_t parent_id, int i) {
  Inner& parent = inners_[parent_id];
  const bool leaf = parent.child_leaf;
  const int mn = leaf ? kLeafMin : kInnerMin;
  const auto size_of = [&](int k) -> int {
    return leaf ? leaves_[parent.ent[k].child].n : inners_[parent.ent[k].child].n;
  };
  if (i > 0 && size_of(i - 1) > mn) {
    // Borrow the left sibling's last entry/child.
    if (leaf) {
      Leaf& L = leaves_[parent.ent[i - 1].child];
      Leaf& C = leaves_[parent.ent[i].child];
      for (int k = C.n; k > 0; --k) {
        C.key[k] = C.key[k - 1];
        C.delta[k] = C.delta[k - 1];
      }
      C.key[0] = L.key[L.n - 1];
      C.delta[0] = L.delta[L.n - 1];
      ++C.n;
      --L.n;
    } else {
      Inner& L = inners_[parent.ent[i - 1].child];
      Inner& C = inners_[parent.ent[i].child];
      for (int k = C.n; k > 0; --k) {
        C.ent[k] = C.ent[k - 1];
      }
      C.ent[0] = L.ent[L.n - 1];
      ++C.n;
      --L.n;
    }
    refresh_child_meta(parent, i - 1);
    refresh_child_meta(parent, i);
    return;
  }
  if (i + 1 < parent.n && size_of(i + 1) > mn) {
    // Borrow the right sibling's first entry/child.
    if (leaf) {
      Leaf& C = leaves_[parent.ent[i].child];
      Leaf& R = leaves_[parent.ent[i + 1].child];
      C.key[C.n] = R.key[0];
      C.delta[C.n] = R.delta[0];
      ++C.n;
      for (int k = 1; k < R.n; ++k) {
        R.key[k - 1] = R.key[k];
        R.delta[k - 1] = R.delta[k];
      }
      --R.n;
    } else {
      Inner& C = inners_[parent.ent[i].child];
      Inner& R = inners_[parent.ent[i + 1].child];
      C.ent[C.n] = R.ent[0];
      ++C.n;
      for (int k = 1; k < R.n; ++k) {
        R.ent[k - 1] = R.ent[k];
      }
      --R.n;
    }
    refresh_child_meta(parent, i);
    refresh_child_meta(parent, i + 1);
    return;
  }
  // Both neighbors (at least one exists) sit at minimum fill: merge with
  // one. 2 * min < cap, so the merged node still has insert slack.
  const int a = i > 0 ? i - 1 : i;
  const int b = a + 1;
  if (leaf) {
    Leaf& A = leaves_[parent.ent[a].child];
    const Leaf& B = leaves_[parent.ent[b].child];
    for (int k = 0; k < B.n; ++k) {
      A.key[A.n + k] = B.key[k];
      A.delta[A.n + k] = B.delta[k];
    }
    A.n = static_cast<std::uint16_t>(A.n + B.n);
    free_leaf(parent.ent[b].child);
  } else {
    Inner& A = inners_[parent.ent[a].child];
    const Inner& B = inners_[parent.ent[b].child];
    for (int k = 0; k < B.n; ++k) {
      A.ent[A.n + k] = B.ent[k];
    }
    A.n = static_cast<std::uint16_t>(A.n + B.n);
    free_inner(parent.ent[b].child);
  }
  for (int k = b; k + 1 < parent.n; ++k) {
    parent.ent[k] = parent.ent[k + 1];
  }
  --parent.n;
  refresh_child_meta(parent, a);
}

void BandwidthProfile::apply_leaf(std::uint32_t leaf_id, Seconds t, RateKbps d) {
  Leaf& L = leaves_[leaf_id];
  int pos = 0;
  while (pos < L.n && L.key[pos] < t) ++pos;
  if (pos < L.n && L.key[pos] == t) {
    L.delta[pos] += d;
    if (L.delta[pos] == 0) {
      // Exact cancellation in integer kbit/s: the change point vanishes.
      for (int k = pos + 1; k < L.n; ++k) {
        L.key[k - 1] = L.key[k];
        L.delta[k - 1] = L.delta[k];
      }
      --L.n;
      --entry_count_;
    }
    return;
  }
  for (int k = L.n; k > pos; --k) {
    L.key[k] = L.key[k - 1];
    L.delta[k] = L.delta[k - 1];
  }
  L.key[pos] = t;
  L.delta[pos] = d;
  ++L.n;
  ++entry_count_;
}

void BandwidthProfile::apply_inner(std::uint32_t node_id, Seconds t, RateKbps d) {
  {
    // Preemptive rebalance: whether the op will insert or erase is only
    // known at the leaf, so keep the child we descend into clear of both
    // the full and the minimal boundary before entering it.
    Inner& nd = inners_[node_id];
    const int i = pick_child(nd, t);
    const std::uint32_t cid = nd.ent[i].child;
    if (nd.child_leaf) {
      prefetch_span(&leaves_[cid], sizeof(Leaf));
    } else {
      prefetch_span(&inners_[cid], sizeof(Inner));
    }
    const int cn = nd.child_leaf ? leaves_[cid].n : inners_[cid].n;
    if (cn == (nd.child_leaf ? kLeafCap : kInnerCap)) {
      split_child(node_id, i);  // grows the slab; references refetched below
    } else if (cn == (nd.child_leaf ? kLeafMin : kInnerMin)) {
      fix_child(node_id, i);  // may merge and renumber children
    }
  }
  Inner& nd = inners_[node_id];
  const int i = pick_child(nd, t);
  const std::uint32_t cid = nd.ent[i].child;
  if (nd.child_leaf) {
    apply_leaf(cid, t, d);
  } else {
    apply_inner(cid, t, d);  // may grow the slabs behind nd
  }
  refresh_child_meta(inners_[node_id], i);
}

void BandwidthProfile::apply_delta(Seconds t, RateKbps d) {
  if (root_ == kNil) {
    root_ = alloc_leaf();
    root_leaf_ = true;
    Leaf& L = leaves_[root_];
    L.n = 1;
    L.key[0] = t;
    L.delta[0] = d;
    entry_count_ = 1;
    return;
  }
  // Grow the root preemptively when full, mirroring apply_inner.
  const bool root_full = root_leaf_ ? leaves_[root_].n == kLeafCap
                                    : inners_[root_].n == kInnerCap;
  if (root_full) {
    const std::uint32_t new_root = alloc_inner();
    Inner& R = inners_[new_root];
    R.n = 1;
    R.child_leaf = root_leaf_;
    R.ent[0].child = root_;
    refresh_child_meta(R, 0);
    root_ = new_root;
    root_leaf_ = false;
    split_child(new_root, 0);
  }
  if (root_leaf_) {
    apply_leaf(root_, t, d);
    if (leaves_[root_].n == 0) {
      free_leaf(root_);
      root_ = kNil;
    }
    return;
  }
  apply_inner(root_, t, d);
  // Merges can leave the root with a single child: collapse it away.
  while (!root_leaf_ && inners_[root_].n == 1) {
    const std::uint32_t child = inners_[root_].ent[0].child;
    const bool child_leaf = inners_[root_].child_leaf;
    free_inner(root_);
    root_ = child;
    root_leaf_ = child_leaf;
  }
}

void BandwidthProfile::add(Seconds start, Seconds end, BitsPerSecond rate) {
  GRIDVC_REQUIRE(start < end, "reservation window inverted");
  GRIDVC_REQUIRE(rate > 0.0, "reservation rate must be positive");
  const RateKbps q = quantize_rate_kbps(rate);
  apply_delta(start, q);
  apply_delta(end, -q);
}

void BandwidthProfile::remove(Seconds start, Seconds end, BitsPerSecond rate) {
  GRIDVC_REQUIRE(start < end, "reservation window inverted");
  GRIDVC_REQUIRE(rate > 0.0, "reservation rate must be positive");
  const RateKbps q = quantize_rate_kbps(rate);
  apply_delta(start, -q);
  apply_delta(end, q);
}

RateKbps BandwidthProfile::level_at(Seconds t) const {
  if (root_ == kNil) return 0;
  RateKbps acc = 0;
  std::uint32_t node = root_;
  bool leaf = root_leaf_;
  while (!leaf) {
    const Inner& nd = inners_[node];
    int i = 0;
    while (i < nd.n && nd.ent[i].max_key <= t) {
      acc += nd.ent[i].sum;  // whole subtree is at or before t
      ++i;
    }
    if (i == nd.n) return acc;
    node = nd.ent[i].child;
    leaf = nd.child_leaf;
    if (leaf) {
      prefetch_span(&leaves_[node], sizeof(Leaf));
    } else {
      prefetch_span(&inners_[node], sizeof(Inner));
    }
  }
  const Leaf& L = leaves_[node];
  for (int k = 0; k < L.n && L.key[k] <= t; ++k) acc += L.delta[k];
  return acc;
}

BandwidthProfile::WindowLevels BandwidthProfile::window_levels(std::uint32_t node_id,
                                                               bool is_leaf, Seconds lo,
                                                               Seconds hi,
                                                               RateKbps base) const {
  // Children fully inside (lo, hi) are answered from their cached
  // (sum, maxp) aggregates; at most two children per level straddle a
  // boundary and recurse, so the walk is O(log n) nodes. The entry level
  // (sum of deltas with key <= lo) rides along the left boundary path.
  WindowLevels out{kNoLevel, base};
  if (is_leaf) {
    const Leaf& L = leaves_[node_id];
    RateKbps acc = base;
    for (int k = 0; k < L.n; ++k) {
      if (L.key[k] >= hi) break;
      acc += L.delta[k];
      if (L.key[k] > lo) {
        out.best = std::max(out.best, acc);
      } else {
        out.entry = acc;
      }
    }
    return out;
  }
  const Inner& nd = inners_[node_id];
  RateKbps acc = base;
  Seconds child_lo = kNegInf;  // keys in child k are > child_lo, <= max_key[k]
  for (int k = 0; k < nd.n; ++k) {
    if (child_lo >= hi) break;
    const Seconds child_hi = nd.ent[k].max_key;
    if (child_hi <= lo) {
      acc += nd.ent[k].sum;
      out.entry = acc;  // whole subtree is at or before lo
      child_lo = child_hi;
      continue;
    }
    if (child_lo >= lo && child_hi < hi) {
      out.best = std::max(out.best, acc + nd.ent[k].maxp);
    } else {
      if (nd.child_leaf) {
        prefetch_span(&leaves_[nd.ent[k].child], sizeof(Leaf));
      } else {
        prefetch_span(&inners_[nd.ent[k].child], sizeof(Inner));
      }
      const WindowLevels sub = window_levels(nd.ent[k].child, nd.child_leaf, lo, hi, acc);
      out.best = std::max(out.best, sub.best);
      if (child_lo < lo) out.entry = sub.entry;  // left boundary child
    }
    acc += nd.ent[k].sum;
    child_lo = child_hi;
  }
  return out;
}

BitsPerSecond BandwidthProfile::peak(Seconds start, Seconds end) const {
  GRIDVC_REQUIRE(start <= end, "peak window inverted");
  // [t, t) contains no instant: nothing is reserved over it.
  if (start >= end) return 0.0;
  if (root_ == kNil) return 0.0;
  // Entry level: the last change at or before `start` is in force during
  // the window (a block [start, x) applies from `start` inclusive, and a
  // block [y, start) has already ended at `start`). Change points at
  // `end` apply outside the window and are excluded.
  const WindowLevels w = window_levels(root_, root_leaf_, start, end, 0);
  const RateKbps best = std::max(w.best, w.entry);
  return static_cast<double>(std::max<RateKbps>(best, 0)) * 1000.0;
}

BitsPerSecond BandwidthProfile::at(Seconds t) const {
  return static_cast<double>(std::max<RateKbps>(level_at(t), 0)) * 1000.0;
}

void BandwidthProfile::for_each_delta(
    Seconds start, Seconds end, const std::function<void(Seconds, RateKbps)>& fn) const {
  if (root_ == kNil || start >= end) return;
  // Subtrees whose max key falls before the window are skipped whole;
  // the walk only descends into children that can hold a key in range,
  // so a narrow window over a large tree stays O(log n + hits).
  const auto walk = [&](const auto& self, std::uint32_t node, bool leaf) -> void {
    if (leaf) {
      const Leaf& L = leaves_[node];
      for (int k = 0; k < L.n; ++k) {
        if (L.key[k] >= end) break;
        if (L.key[k] >= start) fn(L.key[k], L.delta[k]);
      }
      return;
    }
    const Inner& nd = inners_[node];
    for (int k = 0; k < nd.n; ++k) {
      if (nd.ent[k].max_key < start) continue;
      self(self, nd.ent[k].child, nd.child_leaf);
      if (nd.ent[k].max_key >= end) break;
    }
  };
  walk(walk, root_, root_leaf_);
}

BandwidthCalendar::BandwidthCalendar(const net::Topology& topo, double reservable_fraction)
    : topo_(topo), reservable_fraction_(reservable_fraction), profiles_(topo.link_count()) {
  GRIDVC_REQUIRE(reservable_fraction > 0.0 && reservable_fraction <= 1.0,
                 "reservable fraction must be in (0, 1]");
}

BitsPerSecond BandwidthCalendar::available(net::LinkId link, Seconds start,
                                           Seconds end) const {
  GRIDVC_REQUIRE(link < profiles_.size(), "link id out of range");
  const BitsPerSecond reservable = topo_.link(link).capacity * reservable_fraction_;
  return std::max(0.0, reservable - profiles_[link].peak(start, end));
}

bool BandwidthCalendar::fits(const net::Path& path,
                             std::span<const RateSegment> profile) const {
  GRIDVC_REQUIRE(!path.empty(), "fits() of empty path");
  for (const RateSegment& s : profile) {
    for (net::LinkId l : path) {
      if (available(l, s.start, s.end) + kRateEps < s.rate) return false;
    }
  }
  return true;
}

std::uint32_t BandwidthCalendar::slot_of(ReservationId id, const char* what) const {
  const std::uint64_t slot_part = id & 0xffffffffull;
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  GRIDVC_REQUIRE(slot_part != 0 && slot_part <= bookings_.size(), what);
  const std::uint32_t slot = static_cast<std::uint32_t>(slot_part - 1);
  GRIDVC_REQUIRE(bookings_[slot].live && bookings_[slot].generation == generation, what);
  return slot;
}

ReservationId BandwidthCalendar::book(const net::Path& path,
                                      std::span<const RateSegment> profile) {
  GRIDVC_PROF_ZONE("vc.calendar.book");
  GRIDVC_REQUIRE(!profile.empty(), "booking needs at least one segment");
  Seconds prev_end = kNegInf;
  for (const RateSegment& s : profile) {
    GRIDVC_REQUIRE(s.start < s.end, "reservation window inverted");
    GRIDVC_REQUIRE(s.rate > 0.0, "reservation rate must be positive");
    GRIDVC_REQUIRE(s.start >= prev_end, "booking segments must be time-ascending");
    prev_end = s.end;
  }
  GRIDVC_REQUIRE(fits(path, profile), "booking does not fit the calendar");
  for (net::LinkId l : path) {
    for (const RateSegment& s : profile) profiles_[l].add(s.start, s.end, s.rate);
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    bookings_.emplace_back();
    slot = static_cast<std::uint32_t>(bookings_.size() - 1);
  }
  Booking& b = bookings_[slot];
  b.path.assign(path.begin(), path.end());  // both reuse capacity on slot reuse
  b.segments.assign(profile.begin(), profile.end());
  b.live = true;
  ++active_;
  return (static_cast<ReservationId>(b.generation) << 32) |
         static_cast<ReservationId>(slot + 1);
}

void BandwidthCalendar::release(ReservationId id) {
  GRIDVC_PROF_ZONE("vc.calendar.release");
  const std::uint32_t slot = slot_of(id, "release of unknown booking");
  Booking& b = bookings_[slot];
  for (net::LinkId l : b.path) {
    for (const RateSegment& s : b.segments) profiles_[l].remove(s.start, s.end, s.rate);
  }
  b.live = false;
  ++b.generation;  // stale ids (including this one) now fail slot_of()
  free_slots_.push_back(slot);
  --active_;
}

std::vector<RateSegment> BandwidthCalendar::headroom_profile(const net::Path& path,
                                                             Seconds start,
                                                             Seconds end) const {
  GRIDVC_PROF_ZONE("vc.calendar.headroom");
  GRIDVC_REQUIRE(!path.empty(), "headroom_profile() of empty path");
  GRIDVC_REQUIRE(start < end, "headroom window inverted");
  // Cut the window at every change point of any link, then sample each
  // piece once per link: inside a piece no profile changes, so at() at
  // the piece start is the level throughout.
  std::vector<Seconds> cuts;
  cuts.push_back(start);
  for (net::LinkId l : path) {
    profiles_[l].for_each_delta(start, end, [&](Seconds t, RateKbps) {
      if (t > start) cuts.push_back(t);
    });
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  cuts.push_back(end);

  std::vector<RateSegment> out;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    BitsPerSecond avail = std::numeric_limits<BitsPerSecond>::infinity();
    for (net::LinkId l : path) {
      const BitsPerSecond reservable = topo_.link(l).capacity * reservable_fraction_;
      avail = std::min(avail, std::max(0.0, reservable - profiles_[l].at(cuts[i])));
    }
    if (!out.empty() && out.back().rate == avail) {
      out.back().end = cuts[i + 1];  // merge equal-rate neighbors
    } else {
      out.push_back({cuts[i], cuts[i + 1], avail});
    }
  }
  return out;
}

const std::vector<RateSegment>& BandwidthCalendar::booking_segments(ReservationId id) const {
  return bookings_[slot_of(id, "booking_segments of unknown booking")].segments;
}

std::vector<std::pair<Seconds, RateKbps>> BandwidthCalendar::link_deltas(
    net::LinkId link) const {
  GRIDVC_REQUIRE(link < profiles_.size(), "link id out of range");
  std::vector<std::pair<Seconds, RateKbps>> out;
  constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
  profiles_[link].for_each_delta(kNegInf, kInf,
                                 [&](Seconds t, RateKbps d) { out.emplace_back(t, d); });
  return out;
}

}  // namespace gridvc::vc
