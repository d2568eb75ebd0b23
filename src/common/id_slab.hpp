// Id-keyed records in contiguous, reused storage, iterated in id order.
//
// The transfer engine, the servers, the network and the shard relay each
// keep per-id state (transfers, registrations, flows, segments) that is
// created and destroyed once per transfer or flow. In a std::map every
// insert allocates a tree node and every lookup walks the tree. An
// IdSlab keeps the records in a slab whose slots are recycled, plus a
// sorted index of (id, slot) pairs:
//
//   * insert appends to the index when the id is the largest so far (ids
//     an owner issues itself always are), and otherwise inserts in
//     place; the record comes from the free list when one is there;
//   * find is a binary search over the index;
//   * erase removes the index entry and recycles the slot. The record is
//     not destroyed: its vectors keep their capacity, so refilling it
//     copies into storage that is already there. An owner moves out or
//     clears whatever the record must not keep alive (a callback, a
//     shared route) before it erases.
//
// Iteration walks the index, so it is in ascending id order, which is
// the order every output-feeding loop relies on. Storage is O(peak live
// records), not O(ids ever issued).
//
// References returned by insert/find/at stay valid until the next
// insert (which may grow the slab). Never hold one across a call that
// can insert into the same IdSlab.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace gridvc {

template <typename Id, typename T>
class IdSlab {
 public:
  using Slot = std::uint32_t;

  /// Add `id` (which must be absent) and return its record. A recycled
  /// record still holds what its last owner left in it, so the caller
  /// assigns every field it reads.
  T& insert(Id id) {
    if (records_.empty()) {
      // Most slabs stay small (one per server): start at a few records
      // instead of growing 1, 2, 4.
      records_.reserve(kFirstCapacity);
      index_.reserve(kFirstCapacity);
    }
    const auto pos = lower(id);
    GRIDVC_REQUIRE(pos == index_.end() || pos->first != id, "IdSlab: id already present");
    Slot slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<Slot>(records_.size());
      records_.emplace_back();
    }
    index_.insert(pos, Entry{id, slot});
    return records_[slot];
  }

  /// The record of `id`, or nullptr when absent.
  T* find(Id id) {
    const auto pos = lower(id);
    return pos != index_.end() && pos->first == id ? &records_[pos->second] : nullptr;
  }
  const T* find(Id id) const { return const_cast<IdSlab*>(this)->find(id); }

  /// The record of `id`, which must be present.
  T& at(Id id) {
    T* record = find(id);
    GRIDVC_REQUIRE(record != nullptr, "IdSlab: unknown id");
    return *record;
  }

  bool contains(Id id) const { return find(id) != nullptr; }

  /// Forget `id` (which must be present) and recycle its slot.
  void erase(Id id) {
    const auto pos = lower(id);
    GRIDVC_REQUIRE(pos != index_.end() && pos->first == id, "IdSlab: unknown id");
    free_.push_back(pos->second);
    index_.erase(pos);
  }

  /// Forget every id; all slots become free.
  void clear() {
    for (const Entry& e : index_) free_.push_back(e.second);
    index_.clear();
  }

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// Call `fn(id, record)` for every live id in ascending order. `fn` must
  /// not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (const Entry& e : index_) fn(e.first, records_[e.second]);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : index_) fn(e.first, static_cast<const T&>(records_[e.second]));
  }

  /// Call `fn(id, record)` for every live id in [lo, hi], ascending. `fn`
  /// must not insert or erase.
  template <typename Fn>
  void for_each_in(Id lo, Id hi, Fn&& fn) {
    for (auto it = lower(lo); it != index_.end() && !(hi < it->first); ++it) {
      fn(it->first, records_[it->second]);
    }
  }

 private:
  using Entry = std::pair<Id, Slot>;
  static constexpr std::size_t kFirstCapacity = 4;

  typename std::vector<Entry>::iterator lower(Id id) {
    // Fast path: owners mostly look up and insert at the top end.
    if (index_.empty() || index_.back().first < id) return index_.end();
    return std::lower_bound(index_.begin(), index_.end(), id,
                            [](const Entry& e, Id key) { return e.first < key; });
  }

  std::vector<T> records_;
  std::vector<Entry> index_;  ///< ascending by id
  std::vector<Slot> free_;
};

}  // namespace gridvc
