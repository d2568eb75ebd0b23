// Deterministic parallel execution subsystem: the contract under test is
// that every parallel construct produces byte-identical results at ANY
// thread count — per-task RNG streams are derived from (seed, task
// index), never from shared sequential state, so scheduling order cannot
// leak into the output.
#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/session_grouping.hpp"
#include "analysis/vc_feasibility.hpp"
#include "common/rng.hpp"
#include "exec/parallel_sort.hpp"
#include "exec/rng_stream.hpp"
#include "gridftp/transfer_log.hpp"
#include "stats/quantile.hpp"
#include "workload/profiles.hpp"
#include "workload/scenarios.hpp"
#include "workload/synth.hpp"

namespace gridvc::exec {
namespace {

// Restores the process-default pool width when a test body returns.
struct DefaultThreadsGuard {
  ~DefaultThreadsGuard() { set_default_threads(0); }
};

std::string log_bytes(const gridftp::TransferLog& log) {
  std::ostringstream out;
  gridftp::write_log(out, log);
  return out.str();
}

TEST(StreamRng, SameSeedAndStreamReproduce) {
  Rng a = stream_rng(42, 7);
  Rng b = stream_rng(42, 7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(StreamRng, StreamsAreIndependent) {
  // Different stream indices (and different seeds) must give different
  // draw sequences; consecutive indices are the common case in
  // parallel_map, so check those specifically.
  Rng s0 = stream_rng(42, 0);
  Rng s1 = stream_rng(42, 1);
  Rng other_seed = stream_rng(43, 0);
  int equal01 = 0, equal_seed = 0;
  for (int i = 0; i < 64; ++i) {
    const double a = s0.uniform();
    if (a == s1.uniform()) ++equal01;
    if (a == other_seed.uniform()) ++equal_seed;
  }
  EXPECT_LE(equal01, 1);
  EXPECT_LE(equal_seed, 1);
}

TEST(StreamRng, KeyAvalanche) {
  // Neighboring (seed, stream) pairs should produce well-separated keys.
  const std::uint64_t base = stream_key(1, 1);
  EXPECT_NE(base, stream_key(1, 2));
  EXPECT_NE(base, stream_key(2, 1));
  EXPECT_NE(stream_key(0, 0), 0u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ThreadPool, ParallelMapPreservesInputOrder) {
  ThreadPool pool(4);
  const std::vector<std::uint64_t> out =
      pool.parallel_map<std::uint64_t>(1000, [](std::size_t i) {
        return static_cast<std::uint64_t>(i) * i;
      });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<std::uint64_t>(i) * i);
  }
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_TRUE(pool.parallel_map<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(ThreadPool, FirstExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(1000,
                                 [](std::size_t i) {
                                   if (i == 517) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a failed region and keeps working.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(32 * 32);
  pool.parallel_for(32, [&](std::size_t outer) {
    // Inner regions on a worker lane degrade to inline execution; a
    // naive implementation would deadlock waiting for occupied workers.
    pool.parallel_for(32, [&](std::size_t inner) {
      hits[outer * 32 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunOnLanesRunsEveryLaneOnceWithTheCallerAsLaneZero) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(threads);
    std::vector<std::thread::id> ran_on(threads);
    std::atomic<int> out_of_range{0};
    pool.run_on_lanes([&](unsigned lane) {
      if (lane >= threads) {
        out_of_range.fetch_add(1);
        return;
      }
      hits[lane].fetch_add(1);
      ran_on[lane] = std::this_thread::get_id();
    });
    EXPECT_EQ(out_of_range.load(), 0) << threads << " lanes";
    for (unsigned lane = 0; lane < threads; ++lane) {
      EXPECT_EQ(hits[lane].load(), 1) << "lane " << lane << " of " << threads;
    }
    EXPECT_EQ(ran_on[0], std::this_thread::get_id()) << threads << " lanes";
    // One lane per thread: no lane ran on another lane's thread.
    const std::set<std::thread::id> threads_used(ran_on.begin(), ran_on.end());
    EXPECT_EQ(threads_used.size(), threads);
  }
}

TEST(ThreadPool, NestedRunOnLanesRunsInlineOnTheCallingLane) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4 * 4);
  std::atomic<int> moved_thread{0};
  pool.run_on_lanes([&](unsigned outer) {
    const std::thread::id me = std::this_thread::get_id();
    pool.run_on_lanes([&](unsigned inner) {
      if (std::this_thread::get_id() != me) moved_thread.fetch_add(1);
      hits[outer * 4 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_EQ(moved_thread.load(), 0);
}

TEST(ThreadPool, RunOnLanesRethrowsAfterEveryLaneReturns) {
  // Whether the caller's lane or a worker's throws, the other lanes run
  // to the end before the exception reaches the caller.
  for (unsigned thrower : {0u, 3u}) {
    ThreadPool pool(4);
    std::atomic<int> finished{0};
    EXPECT_THROW(pool.run_on_lanes([&](unsigned lane) {
                   if (lane == thrower) throw std::runtime_error("lane failed");
                   std::this_thread::sleep_for(std::chrono::milliseconds(2));
                   finished.fetch_add(1);
                 }),
                 std::runtime_error)
        << "lane " << thrower;
    EXPECT_EQ(finished.load(), 3) << "lane " << thrower;
    // The pool survives a failed region and keeps working.
    std::atomic<int> count{0};
    pool.run_on_lanes([&](unsigned) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 4);
    pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 104);
  }
}

TEST(ThreadPool, BackToBackRegionsSurviveEveryParkAndWake) {
  // About 10k tiny regions, alternating parallel_for and run_on_lanes,
  // so the lanes mostly hand off while polling. Every 250 regions the
  // caller pauses past the pool's 100 us poll bound first, so every
  // worker parks and the next region must wake it; 125 regions later one
  // worker lane dawdles past the bound, so the caller parks on the drain
  // and that worker must wake it. Each index and lane runs exactly once.
  constexpr int kRegions = 10000;
  constexpr auto kPastPollBound = std::chrono::microseconds(400);
  for (unsigned threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const std::size_t n = 3 * static_cast<std::size_t>(threads);
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::uint64_t> total{0};
    std::uint64_t expected = 0;
    for (int k = 0; k < kRegions; ++k) {
      if (k % 250 == 0) std::this_thread::sleep_for(kPastPollBound);
      const bool dawdle = k % 250 == 125;
      if (k % 2 == 0) {
        pool.parallel_for(n, [&](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          total.fetch_add(1, std::memory_order_relaxed);
        });
        expected += n;
      } else {
        pool.run_on_lanes([&](unsigned lane) {
          if (dawdle && lane == threads - 1) std::this_thread::sleep_for(kPastPollBound);
          hits[lane].fetch_add(1, std::memory_order_relaxed);
          total.fetch_add(1, std::memory_order_relaxed);
        });
        expected += threads;
      }
      ASSERT_EQ(total.load(), expected) << "region " << k << " at " << threads << " lanes";
    }
    for (std::size_t i = 0; i < n; ++i) {
      const int want = kRegions / 2 + (i < threads ? kRegions / 2 : 0);
      ASSERT_EQ(hits[i].load(), want) << "index " << i << " at " << threads << " lanes";
    }
  }
}

TEST(ParallelSort, MatchesStableSortAtAnyThreadCount) {
  // Pairs with heavily duplicated keys: a non-stable or thread-dependent
  // merge would reorder the payloads of equal keys.
  Rng rng(99);
  std::vector<std::pair<int, int>> base(50000);
  for (int i = 0; i < static_cast<int>(base.size()); ++i) {
    base[i] = {static_cast<int>(rng.uniform_int(0, 40)), i};
  }
  auto expected = base;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    auto got = base;
    parallel_sort(got, pool,
                  [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(got, expected) << "at " << threads << " threads";
  }
}

TEST(ParallelSort, SmallInputsUseTheSerialPath) {
  ThreadPool pool(8);
  std::vector<int> v{5, 3, 1, 4, 2};
  parallel_sort(v, pool);
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(DeterministicParallel, SynthesisByteIdenticalAcrossThreadCounts) {
  DefaultThreadsGuard guard;
  const auto profile = workload::slac_bnl_profile(3000.0 / 1021999.0);

  set_default_threads(1);
  const auto serial = workload::synthesize_trace(profile, 2012);
  const std::string serial_bytes = log_bytes(serial);

  for (unsigned threads : {2u, 8u}) {
    set_default_threads(threads);
    const auto parallel = workload::synthesize_trace(profile, 2012);
    ASSERT_EQ(log_bytes(parallel), serial_bytes) << "at " << threads << " threads";
  }
  EXPECT_EQ(serial.size(), profile.target_transfers);
}

TEST(DeterministicParallel, GroupSessionsThreadCountInvariant) {
  DefaultThreadsGuard guard;
  // Two endpoint pairs and enough records to cross the parallel
  // threshold, so the concurrent partition sweep actually runs.
  auto log = workload::synthesize_trace(workload::slac_bnl_profile(4000.0 / 1021999.0), 3);
  auto ncar_profile = workload::ncar_nics_profile();
  ncar_profile.target_transfers = 3000;
  const auto ncar = workload::synthesize_trace(ncar_profile, 4);
  log.insert(log.end(), ncar.begin(), ncar.end());

  set_default_threads(1);
  const auto serial = analysis::group_sessions(log, {.gap = 60.0});
  set_default_threads(8);
  const auto parallel = analysis::group_sessions(log, {.gap = 60.0});

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(parallel[i].key, serial[i].key);
    ASSERT_EQ(parallel[i].transfer_indices, serial[i].transfer_indices);
    ASSERT_EQ(parallel[i].total_bytes, serial[i].total_bytes);
    ASSERT_DOUBLE_EQ(parallel[i].start_time, serial[i].start_time);
    ASSERT_DOUBLE_EQ(parallel[i].end_time, serial[i].end_time);
  }
}

TEST(DeterministicParallel, SuitabilitySweepMatchesSerialCells) {
  DefaultThreadsGuard guard;
  const auto log = workload::synthesize_trace(workload::slac_bnl_profile(3000.0 / 1021999.0), 8);
  const std::vector<analysis::SuitabilityPoint> points{
      {0.0, 60.0}, {60.0, 60.0}, {60.0, 0.05}, {120.0, 60.0}, {3600.0, 0.05}};

  set_default_threads(1);
  const auto serial = analysis::suitability_sweep(log, points);
  set_default_threads(8);
  const auto parallel = analysis::suitability_sweep(log, points);

  ASSERT_EQ(serial.size(), points.size());
  ASSERT_EQ(parallel.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(parallel[i].session_count, serial[i].session_count);
    ASSERT_EQ(parallel[i].feasibility.suitable_sessions,
              serial[i].feasibility.suitable_sessions);
    ASSERT_EQ(parallel[i].feasibility.suitable_transfers,
              serial[i].feasibility.suitable_transfers);
    ASSERT_DOUBLE_EQ(parallel[i].feasibility.reference_throughput,
                     serial[i].feasibility.reference_throughput);
  }

  // Each cell equals the straight-line computation it parallelizes.
  const auto sessions = analysis::group_sessions(log, {.gap = points[1].gap});
  const auto direct = analysis::analyze_vc_feasibility(
      sessions, log, {.setup_delay = points[1].setup_delay});
  EXPECT_EQ(serial[1].session_count, sessions.size());
  EXPECT_EQ(serial[1].feasibility.suitable_sessions, direct.suitable_sessions);
}

TEST(DeterministicParallel, QuantilesMatchSerialSort) {
  DefaultThreadsGuard guard;
  Rng rng(17);
  std::vector<double> values(100000);
  for (auto& v : values) v = rng.uniform(0.0, 1e9);

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (unsigned threads : {1u, 8u}) {
    set_default_threads(threads);
    for (double p : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
      ASSERT_DOUBLE_EQ(stats::quantile(values, p), stats::quantile_sorted(sorted, p))
          << "p=" << p << " threads=" << threads;
    }
  }
}

TEST(DeterministicParallel, ScenarioReplicationsAreSeedKeyed) {
  DefaultThreadsGuard guard;
  workload::NerscOrnlConfig config;
  config.transfer_count = 6;
  config.days = 2;
  // Replication i runs seed 77 + i on its own simulator, network and
  // registry, so the results cannot depend on the pool width.
  const auto replicate = [&config] {
    return default_pool().parallel_map<workload::NerscOrnlResult>(
        3, [&config](std::size_t i) { return workload::run_nersc_ornl_tests(config, 77 + i); });
  };

  set_default_threads(1);
  const auto serial = replicate();
  set_default_threads(4);
  const auto parallel = replicate();

  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(log_bytes(parallel[i].log), log_bytes(serial[i].log)) << "replication " << i;
  }
  // Distinct seeds, distinct replications.
  EXPECT_NE(log_bytes(serial[0].log), log_bytes(serial[1].log));
  // Replication i equals a standalone run at seed base + i.
  const auto standalone = workload::run_nersc_ornl_tests(config, 78);
  EXPECT_EQ(log_bytes(serial[1].log), log_bytes(standalone.log));
}

TEST(DefaultPool, SetAndRestore) {
  DefaultThreadsGuard guard;
  set_default_threads(3);
  EXPECT_EQ(default_threads(), 3u);
  set_default_threads(0);
  EXPECT_EQ(default_threads(), hardware_threads());
  EXPECT_GE(hardware_threads(), 1u);
}

}  // namespace
}  // namespace gridvc::exec
