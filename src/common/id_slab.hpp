// Id-keyed records in reused storage that never moves, iterated in id
// order.
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
// The slab grows in chunks that double in size (4 records, then 8, 16,
// ...) and are never moved or freed before the slab is, and a record is
// constructed when its slot is first handed out. So growing costs the
// allocations a doubling vector would make, but copies nothing and
// touches no memory beyond the records in use: a vector's growth moves
// every record into a block twice the size and frees the old one, which
// in a short run means fresh pages to fault in. A reference returned by
// insert/find/at therefore stays valid until its id is erased (after
// that the record may be handed to another id).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace gridvc {

template <typename Id, typename T>
class IdSlab {
 public:
  using Slot = std::uint32_t;

  IdSlab() = default;
  IdSlab(const IdSlab&) = delete;
  IdSlab& operator=(const IdSlab&) = delete;
  IdSlab(IdSlab&& other) noexcept { take(other); }
  IdSlab& operator=(IdSlab&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~IdSlab() { release(); }

  /// Add `id` (which must be absent) and return its record. A recycled
  /// record still holds what its last owner left in it, so the caller
  /// assigns every field it reads.
  T& insert(Id id) {
    // Most slabs stay small (one per server): start the index at a few
    // entries instead of growing 1, 2, 4.
    if (index_.capacity() == 0) index_.reserve(kFirstCapacity);
    const auto pos = lower(id);
    GRIDVC_REQUIRE(pos == index_.end() || pos->first != id, "IdSlab: id already present");
    Slot slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = new_slot();
    }
    index_.insert(pos, Entry{id, slot});
    return record(slot);
  }

  /// The record of `id`, or nullptr when absent.
  T* find(Id id) {
    const auto pos = lower(id);
    return pos != index_.end() && pos->first == id ? &record(pos->second) : nullptr;
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
    for (const Entry& e : index_) fn(e.first, record(e.second));
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : index_) fn(e.first, static_cast<const T&>(record(e.second)));
  }

  /// Call `fn(id, record)` for every live id in [lo, hi], ascending. `fn`
  /// must not insert or erase.
  template <typename Fn>
  void for_each_in(Id lo, Id hi, Fn&& fn) {
    for (auto it = lower(lo); it != index_.end() && !(hi < it->first); ++it) {
      fn(it->first, record(it->second));
    }
  }

 private:
  using Entry = std::pair<Id, Slot>;
  /// Chunk k holds kFirstCapacity << k records, slots
  /// [kFirstCapacity * (2^k - 1), kFirstCapacity * (2^(k+1) - 1)).
  static constexpr std::size_t kFirstCapacity = 4;
  static constexpr std::size_t kMaxChunks = 24;  // about 67M records

  static std::size_t chunk_of(Slot slot) {
    return static_cast<std::size_t>(std::bit_width(slot / kFirstCapacity + 1)) - 1;
  }
  static std::size_t chunk_base(std::size_t k) {
    return kFirstCapacity * ((std::size_t{1} << k) - 1);
  }
  static std::size_t chunk_size(std::size_t k) { return kFirstCapacity << k; }

  T& record(Slot slot) const {
    const std::size_t k = chunk_of(slot);
    return chunks_[k][slot - chunk_base(k)];
  }

  /// Construct the record of the next never-used slot, opening its chunk
  /// when the slot is the chunk's first.
  Slot new_slot() {
    const Slot slot = slots_;
    const std::size_t k = chunk_of(slot);
    if (slot == chunk_base(k)) {
      GRIDVC_REQUIRE(k < kMaxChunks, "IdSlab: too many records");
      chunks_[k] = std::allocator<T>().allocate(chunk_size(k));
    }
    std::construct_at(&record(slot));
    ++slots_;
    return slot;
  }

  /// Destroy every record and free every chunk.
  void release() noexcept {
    for (std::size_t k = 0; k < kMaxChunks && chunks_[k] != nullptr; ++k) {
      const std::size_t used = std::min(chunk_size(k), slots_ - chunk_base(k));
      std::destroy_n(chunks_[k], used);
      std::allocator<T>().deallocate(chunks_[k], chunk_size(k));
      chunks_[k] = nullptr;
    }
    slots_ = 0;
  }

  void take(IdSlab& other) noexcept {
    chunks_ = std::exchange(other.chunks_, {});
    slots_ = std::exchange(other.slots_, 0);
    index_ = std::move(other.index_);
    free_ = std::move(other.free_);
    other.index_.clear();
    other.free_.clear();
  }

  typename std::vector<Entry>::iterator lower(Id id) {
    // Fast path: owners mostly look up and insert at the top end.
    if (index_.empty() || index_.back().first < id) return index_.end();
    return std::lower_bound(index_.begin(), index_.end(), id,
                            [](const Entry& e, Id key) { return e.first < key; });
  }

  std::array<T*, kMaxChunks> chunks_{};  ///< chunk k, or nullptr once past the last
  Slot slots_ = 0;                       ///< slots handed out so far
  std::vector<Entry> index_;  ///< ascending by id
  std::vector<Slot> free_;
};

}  // namespace gridvc
