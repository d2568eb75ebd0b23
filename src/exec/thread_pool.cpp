#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/profiler.hpp"

namespace gridvc::exec {

namespace {
// Set while a pool worker (or the caller inside a region) is executing
// region bodies; nested regions then run inline.
thread_local bool t_inside_region = false;

// How long an idle worker polls for the next region, and the caller for
// the region's end, before parking on a condition variable. The sharded
// simulation issues one region per epoch. On gridvc-simulate's 24-site
// federation (seed 3, 20k users, 4 lanes on a 4-core KVM guest) a
// worker's wait from one epoch to the next ended within 20 us in 91% of
// 137k waits and within 50 us in all but 79, and none reached 100 us. So
// this bound keeps the lanes awake across barriers, while a pool with
// nothing to do stops polling within a tenth of a millisecond.
constexpr std::chrono::microseconds kPollBound{100};

// Poll `ready` until it holds (true) or kPollBound passes (false). Each
// failed poll yields the CPU, so a lane that shares a core with a lane
// doing work (more lanes than cores) lets it run instead of spinning:
// polling with a `pause` instruction alone took the 20k-user federation
// above from 0.8 s to 10 s at 8 lanes on the 4 cores.
template <typename Ready>
bool poll_for(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kPollBound;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}
}  // namespace

// The handoff uses sequentially consistent atomics throughout: a side
// that parks first announces it (`workers_parked`, `caller_parked`) under
// the mutex and then re-checks the other side's atomic, while the other
// side changes that atomic and then reads the announcement, so one of
// the two always sees the other. A notifier that sees an announcement
// takes and releases the mutex before notifying, so a waiter between its
// re-check and its wait (it holds the mutex there) cannot miss the
// notify. The mutex is thus taken only to park, and by a notifier only
// when someone has announced a park.
struct ThreadPool::Impl {
  // The current region: `body` is written before `region` is bumped and
  // read by workers after they see the bump; `busy` counts workers that
  // have not finished it.
  const std::function<void(unsigned)>* body = nullptr;
  std::atomic<std::uint64_t> region{0};
  std::atomic<std::size_t> busy{0};
  std::atomic<bool> stop{false};

  std::mutex m;
  std::condition_variable cv_work;  ///< parked workers wait here for a region
  std::condition_variable cv_done;  ///< a parked caller waits here for drain
  std::atomic<unsigned> workers_parked{0};
  std::atomic<bool> caller_parked{false};

  std::mutex error_m;
  std::exception_ptr error;

  std::vector<std::thread> workers;

  void run_lane(unsigned lane) {
    t_inside_region = true;
    try {
      (*body)(lane);
    } catch (...) {
      std::lock_guard<std::mutex> lk(error_m);
      if (!error) error = std::current_exception();
    }
    t_inside_region = false;
  }

  void worker_loop(unsigned lane) {
    std::uint64_t seen = 0;
    const auto news = [&] { return stop.load() || region.load() != seen; };
    for (;;) {
      if (!poll_for(news)) {
        std::unique_lock<std::mutex> lk(m);
        workers_parked.fetch_add(1);
        cv_work.wait(lk, news);
        workers_parked.fetch_sub(1);
      }
      if (stop.load()) return;
      // The caller publishes the next region only after this one drained,
      // so the counter moved by exactly one.
      ++seen;
      run_lane(lane);
      if (busy.fetch_sub(1) == 1 && caller_parked.load()) {
        { std::lock_guard<std::mutex> lk(m); }
        cv_done.notify_one();
      }
    }
  }
};

ThreadPool::ThreadPool(unsigned threads) {
  threads_ = threads == 0 ? hardware_threads() : threads;
  if (threads_ <= 1) return;  // inline pool: no workers, no Impl
  impl_ = std::make_unique<Impl>();
  impl_->workers.reserve(threads_ - 1);
  for (unsigned i = 0; i + 1 < threads_; ++i) {
    // Lane i + 1: the region's caller is lane 0. The label feeds the
    // profiler's deterministic buffer ordering and timeline tids.
    impl_->workers.emplace_back([this, i] {
      obs::Profiler::set_thread_lane(i + 1);
      impl_->worker_loop(i + 1);
    });
  }
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->stop.store(true);
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
}

void ThreadPool::run_on_lanes(const std::function<void(unsigned)>& body) {
  // Inline when the pool has one lane, or when called from inside a
  // region (nested parallelism runs serially on the calling lane).
  if (!impl_ || t_inside_region) {
    std::exception_ptr first;
    for (unsigned lane = 0; lane < threads_; ++lane) {
      try {
        body(lane);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }
  Impl& p = *impl_;
  p.body = &body;
  p.error = nullptr;
  p.busy.store(p.workers.size());
  p.region.fetch_add(1);
  if (p.workers_parked.load() > 0) {
    { std::lock_guard<std::mutex> lk(p.m); }
    p.cv_work.notify_all();
  }
  p.run_lane(0);  // the caller is a lane too
  const auto drained = [&p] { return p.busy.load() == 0; };
  if (!poll_for(drained)) {
    std::unique_lock<std::mutex> lk(p.m);
    p.caller_parked.store(true);
    p.cv_done.wait(lk, drained);
    p.caller_parked.store(false);
  }
  p.body = nullptr;
  if (p.error) {
    std::exception_ptr e = p.error;
    p.error = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (!impl_ || t_inside_region) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // ~4 chunks per lane amortizes the cursor while keeping tail latency
  // bounded; chunk geometry never affects results, only load balance.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(threads_) * 4));
  std::atomic<std::size_t> next{0};
  run_on_lanes([&](unsigned) {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + chunk);
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        // Short-circuit the remaining index space; the region still
        // drains normally and rethrows the first exception.
        next.store(n, std::memory_order_relaxed);
        throw;
      }
    }
  });
}

unsigned hardware_threads() {
  const unsigned h = std::thread::hardware_concurrency();
  return h == 0 ? 1 : h;
}

namespace {
std::mutex g_default_m;
unsigned g_default_requested = 0;  // 0 = hardware
std::unique_ptr<ThreadPool> g_default_pool;
}  // namespace

void set_default_threads(unsigned n) {
  std::lock_guard<std::mutex> lk(g_default_m);
  g_default_requested = n;
  g_default_pool.reset();
}

unsigned default_threads() {
  std::lock_guard<std::mutex> lk(g_default_m);
  return g_default_requested == 0 ? hardware_threads() : g_default_requested;
}

ThreadPool& default_pool() {
  std::lock_guard<std::mutex> lk(g_default_m);
  if (!g_default_pool) {
    const unsigned n =
        g_default_requested == 0 ? hardware_threads() : g_default_requested;
    g_default_pool = std::make_unique<ThreadPool>(n);
  }
  return *g_default_pool;
}

}  // namespace gridvc::exec
