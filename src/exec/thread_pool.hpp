// Deterministic parallel execution substrate.
//
// A fixed-size pool of persistent workers plus the calling thread run
// index-space loops (`parallel_for`), maps (`parallel_map`) and
// lane-indexed regions (`run_on_lanes`, where the body decides what each
// lane does). The loops are intentionally work-stealing-free: indices
// are claimed in contiguous chunks off a single atomic cursor, every
// index writes only to its own output slot, and any randomness a task
// needs comes from a counter-based stream keyed on the task index
// (rng_stream.hpp) — never from shared sequential state. Under that contract the result of a parallel region
// is byte-identical at any thread count, including 1; tests/test_exec.cpp
// pins this for the synthesizer, the suitability sweep, and scenario
// replications.
//
// Scheduling-order effects (which thread runs which chunk, completion
// order) exist but are unobservable through the API: parallel_for blocks
// until every index completed, and the first exception thrown by any
// index is rethrown to the caller after the region drains.
//
// Nested use: a parallel_for issued from inside a pool worker runs inline
// on that worker (no new parallelism, no deadlock), so library functions
// may use the default pool freely without caring whether their caller is
// already parallel.
//
// Handoff: between regions a worker polls for the next one for a bounded
// time, yielding the CPU between polls, and only then parks on a
// condition variable; the caller waits for a region to drain the same
// way. Back-to-back regions (the sharded simulation's epochs) therefore
// hand off without a thread wake-up, and an idle pool costs no CPU once
// the bound has passed.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace gridvc::exec {

class ThreadPool {
 public:
  /// A pool of `threads` execution lanes (the calling thread counts as
  /// one; `threads - 1` workers are spawned). 0 means one lane per
  /// hardware thread. A 1-lane pool runs everything inline.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return threads_; }

  /// Run `body(i)` for every i in [0, n); blocks until all complete.
  /// Each index must depend only on its own value (plus immutable shared
  /// state) and write only index-owned slots — that is what makes the
  /// region deterministic. The first exception any index throws is
  /// rethrown here once the region drains.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Run `body(lane)` once on each lane, lane in [0, thread_count()): the
  /// caller is lane 0 and worker i is lane i + 1, the profiler's labels.
  /// Blocks until every lane returned; the first exception any lane
  /// throws is rethrown here after that. Called from inside a region (or
  /// on a 1-lane pool) it runs body(0) .. body(thread_count() - 1) inline,
  /// in order, on the calling thread, with the same exception contract.
  void run_on_lanes(const std::function<void(unsigned)>& body);

  /// parallel_for producing out[i] = fn(i). T must be default- and
  /// move-constructible.
  template <typename T, typename Fn>
  std::vector<T> parallel_map(std::size_t n, Fn&& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  ///< null for a 1-lane pool
  unsigned threads_ = 1;
};

/// Hardware thread count (>= 1 even when unknown).
unsigned hardware_threads();

/// Configure the process-default lane count used by default_pool().
/// 0 restores "one lane per hardware thread". Takes effect on the next
/// default_pool() call (the old pool is torn down). The `--threads N`
/// CLI flags and the benches' GRIDVC_THREADS variable land here.
void set_default_threads(unsigned n);

/// The currently configured default lane count (>= 1).
unsigned default_threads();

/// Process-wide shared pool, created on first use with default_threads()
/// lanes. Intended for use from the main thread; nested use from inside
/// a parallel region runs inline.
ThreadPool& default_pool();

}  // namespace gridvc::exec
