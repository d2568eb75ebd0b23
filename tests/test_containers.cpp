// The event loop's allocation-free building blocks: InlineFunction (the
// callback type of the simulator, network and transfer engine), IdSlab
// (their per-id records) and HugePageAllocator (the calendar's slabs).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/hugepage_alloc.hpp"
#include "common/id_slab.hpp"
#include "common/inline_function.hpp"
#include "sim/simulator.hpp"

namespace gridvc {
namespace {

TEST(InlineFunction, HoldsMoveOnlyStateAndMovesIt) {
  auto owned = std::make_unique<int>(41);
  InlineFunction<int(int)> f = [p = std::move(owned)](int x) { return *p + x; };
  ASSERT_TRUE(f);
  EXPECT_EQ(f(1), 42);
  InlineFunction<int(int)> g = std::move(f);
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(f == nullptr);
  EXPECT_EQ(g(2), 43);
}

TEST(InlineFunction, DestroysCapturedStateExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    InlineFunction<void()> f = [token] {};
    EXPECT_EQ(token.use_count(), 2);
    InlineFunction<void()> g;
    g = std::move(f);
    EXPECT_EQ(token.use_count(), 2);
    g = nullptr;
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunction, EmptyCallThrowsLikeStdFunction) {
  InlineFunction<void()> f;
  EXPECT_THROW(f(), std::bad_function_call);
}

TEST(InlineFunction, SimulatorReleasesClosuresWhenEventsEnd) {
  sim::Simulator sim;
  auto token = std::make_shared<int>(0);
  int fired = 0;
  sim.schedule_at(1.0, [token, &fired] { ++fired; });
  auto cancelled = sim.schedule_at(2.0, [token, &fired] { ++fired; });
  EXPECT_EQ(token.use_count(), 3);
  cancelled.cancel();
  EXPECT_EQ(token.use_count(), 2);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(IdSlab, IteratesInIdOrderAfterRecordsAreReused) {
  IdSlab<std::uint64_t, int> slab;
  for (std::uint64_t id = 1; id <= 4; ++id) slab.insert(id) = static_cast<int>(id);
  slab.erase(1);
  slab.erase(3);
  slab.insert(7) = 7;  // reuses a freed record
  slab.insert(5) = 5;
  std::vector<std::uint64_t> ids;
  slab.for_each([&](std::uint64_t id, int& v) {
    EXPECT_EQ(v, static_cast<int>(id));
    ids.push_back(id);
  });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 4, 5, 7}));
  EXPECT_EQ(slab.size(), 4u);
  EXPECT_EQ(slab.find(3), nullptr);
  EXPECT_EQ(slab.at(5), 5);
}

TEST(IdSlab, InsertsBelowTheTopInPlace) {
  IdSlab<std::uint64_t, int> slab;
  slab.insert(10) = 10;
  slab.insert(30) = 30;
  slab.insert(20) = 20;
  std::vector<std::uint64_t> ids;
  slab.for_each([&](std::uint64_t id, int&) { ids.push_back(id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_THROW(slab.insert(20), PreconditionError);
  EXPECT_THROW(slab.erase(25), PreconditionError);
}

TEST(IdSlab, RangeWalkVisitsOnlyTheRange) {
  using Key = std::pair<std::uint64_t, std::uint32_t>;
  IdSlab<Key, int> slab;
  slab.insert({1, 0}) = 10;
  slab.insert({2, 0}) = 20;
  slab.insert({2, 3}) = 23;
  slab.insert({3, 1}) = 31;
  std::vector<int> seen;
  slab.for_each_in({2, 0}, {2, ~std::uint32_t{0}},
                   [&](const Key&, int& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{20, 23}));
}

TEST(IdSlab, ReusedRecordKeepsItsCapacity) {
  IdSlab<std::uint64_t, std::vector<int>> slab;
  slab.insert(1).assign(100, 1);
  const int* buffer = slab.at(1).data();
  slab.erase(1);
  std::vector<int>& reused = slab.insert(2);
  EXPECT_GE(reused.capacity(), 100u);
  reused.assign(50, 2);  // fits: no new buffer
  EXPECT_EQ(reused.data(), buffer);
}

// Records live in chunks that never move: a reference taken before the
// slab grows still reads its record afterwards, and every record the
// slab constructed is destroyed exactly once, by the slab that owns it
// after a move.
TEST(IdSlab, RecordsStayPutAsTheSlabGrowsAndDieWithIt) {
  auto token = std::make_shared<int>(0);
  {
    IdSlab<std::uint64_t, std::shared_ptr<int>> slab;
    std::shared_ptr<int>& first = slab.insert(1);
    first = token;
    const std::shared_ptr<int>* const address = &first;
    for (std::uint64_t id = 2; id <= 1000; ++id) slab.insert(id) = token;
    EXPECT_EQ(slab.find(1), address);
    EXPECT_EQ(*address, token);
    EXPECT_EQ(token.use_count(), 1001);
    slab.erase(500);  // recycled, not destroyed
    EXPECT_EQ(token.use_count(), 1001);
    IdSlab<std::uint64_t, std::shared_ptr<int>> moved = std::move(slab);
    EXPECT_EQ(moved.find(1), address);
    EXPECT_EQ(moved.size(), 999u);
    EXPECT_EQ(token.use_count(), 1001);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// A slab below one huge page comes from operator new and one of a huge
// page or more is mapped; growing past the line and shrinking back below
// it moves the contents across both ways. deallocate must free each
// buffer the way allocate got it: under ASan, a mapped buffer handed to
// operator delete (or a heap one unmapped) aborts the test.
TEST(HugePageAllocator, VectorCrossesTheHugePageLineBothWays) {
  struct Block {  // a calendar leaf's size: 2 MiB is not a whole number of them
    std::uint64_t word[65];
  };
  using Alloc = HugePageAllocator<Block>;
  static_assert(sizeof(Block) == 520);
#if defined(__linux__)
  EXPECT_FALSE(Alloc::maps(kHugePageBytes / sizeof(Block)));  // 4032 blocks < 2 MiB
  EXPECT_TRUE(Alloc::maps(kHugePageBytes / sizeof(Block) + 1));
#endif
  const auto fill = [](std::size_t i) {
    Block b{};
    for (std::size_t k = 0; k < 65; ++k) b.word[k] = i * 65 + k;
    return b;
  };
  const auto holds = [&](const std::vector<Block, Alloc>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      const Block want = fill(i);
      for (std::size_t k = 0; k < 65; ++k) {
        if (v[i].word[k] != want.word[k]) return false;
      }
    }
    return true;
  };

  std::vector<Block, Alloc> v;
  v.push_back(fill(0));
  EXPECT_FALSE(Alloc::maps(v.capacity()));
  bool crossed = false;
  while (v.capacity() * sizeof(Block) < 2 * kHugePageBytes) {
    v.push_back(fill(v.size()));
    if (Alloc::maps(v.capacity()) && !crossed) {
      crossed = true;
#if defined(__linux__)
      // A mapping starts on a page boundary.
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 4096, 0u);
#endif
    }
  }
#if defined(__linux__)
  EXPECT_TRUE(crossed);
#endif
  ASSERT_TRUE(holds(v));

  v.resize(3);
  v.shrink_to_fit();
  EXPECT_FALSE(Alloc::maps(v.capacity()));
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(holds(v));
}

}  // namespace
}  // namespace gridvc
