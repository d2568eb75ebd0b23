#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "obs/log_histogram.hpp"

namespace gridvc::obs {

namespace {

constexpr std::size_t kMaxDepth = 64;
constexpr std::size_t kRingCapacity = 1u << 15;  // samples kept per thread

struct Frame {
  ZoneId zone = 0;
  std::uint64_t start = 0;
  std::uint64_t child = 0;  // ticks spent in direct child zones
};

struct RawSample {
  std::uint64_t start = 0;
  std::uint64_t dur = 0;
  ZoneId zone = 0;
  std::uint32_t depth = 0;
};

struct Agg {
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  std::uint64_t self = 0;
};

struct ProfBuffer {
  std::uint32_t lane = 0;
  std::uint64_t created_seq = 0;
  std::vector<Agg> agg;             // indexed by ZoneId
  std::vector<LogHistogram> hist;   // inclusive duration ticks, by ZoneId
  std::vector<RawSample> ring;      // kRingCapacity entries
  std::size_t ring_pos = 0;
  std::uint64_t pushed = 0;
  Frame stack[kMaxDepth];
  std::size_t depth = 0;

  ProfBuffer() { ring.resize(kRingCapacity); }

  void reset() {
    std::fill(agg.begin(), agg.end(), Agg{});
    for (auto& h : hist) h = LogHistogram{};
    ring_pos = 0;
    pushed = 0;
    depth = 0;
  }
};

struct GlobalState {
  std::mutex m;
  std::vector<std::shared_ptr<ProfBuffer>> buffers;
  std::uint64_t next_seq = 0;
  std::map<std::string, ZoneId> zone_ids;
  std::vector<std::string> zone_names;
  std::uint64_t t0_ticks = 0;
  std::uint64_t t0_steady_ns = 0;
};

GlobalState& state() {
  static GlobalState s;
  return s;
}

thread_local std::shared_ptr<ProfBuffer> t_owner;
thread_local ProfBuffer* t_buf = nullptr;
thread_local std::uint32_t t_lane = 0;

using ClockFn = std::uint64_t (*)();
std::atomic<ClockFn> g_test_clock{nullptr};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t read_ticks() {
  const ClockFn fn = g_test_clock.load(std::memory_order_relaxed);
  if (fn) return fn();
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_ia32_rdtsc();
#else
  return steady_ns();
#endif
}

ProfBuffer* create_buffer() {
  auto b = std::make_shared<ProfBuffer>();
  b->lane = t_lane;
  GlobalState& s = state();
  {
    std::lock_guard<std::mutex> lk(s.m);
    b->created_seq = s.next_seq++;
    s.buffers.push_back(b);
  }
  t_owner = b;
  t_buf = b.get();
  return t_buf;
}

void grow_zone_slots(ProfBuffer& b, ZoneId zone) {
  b.agg.resize(zone + 1);
  b.hist.resize(zone + 1);
}

std::uint64_t scale_ticks(std::uint64_t ticks, double ns_per_tick) {
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(ticks) * ns_per_tick));
}

}  // namespace

ZoneId Profiler::intern_zone(const std::string& name) {
  GlobalState& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  const auto it = s.zone_ids.find(name);
  if (it != s.zone_ids.end()) return it->second;
  const ZoneId id = static_cast<ZoneId>(s.zone_names.size());
  s.zone_ids.emplace(name, id);
  s.zone_names.push_back(name);
  return id;
}

std::string Profiler::zone_name(ZoneId id) {
  GlobalState& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  return id < s.zone_names.size() ? s.zone_names[id] : "?";
}

void Profiler::enable() {
  GlobalState& s = state();
  std::lock_guard<std::mutex> lk(s.m);
  for (auto& b : s.buffers) b->reset();
  s.t0_ticks = read_ticks();
  s.t0_steady_ns = steady_ns();
  g_enabled.store(true, std::memory_order_release);
}

void Profiler::disable() { g_enabled.store(false, std::memory_order_release); }

void Profiler::set_thread_lane(std::uint32_t lane) {
  t_lane = lane;
  if (t_buf) t_buf->lane = lane;
}

void Profiler::set_clock_for_test(std::uint64_t (*now_fn)()) {
  g_test_clock.store(now_fn, std::memory_order_relaxed);
}

void Profiler::enter(ZoneId zone) {
  ProfBuffer* b = t_buf;
  if (!b) b = create_buffer();
  if (b->depth >= kMaxDepth) {  // beyond capture depth: count the nesting only
    ++b->depth;
    return;
  }
  Frame& f = b->stack[b->depth++];
  f.zone = zone;
  f.child = 0;
  f.start = read_ticks();
}

void Profiler::exit() {
  ProfBuffer* b = t_buf;
  if (!b || b->depth == 0) return;  // epoch reset swallowed the open frame
  if (b->depth > kMaxDepth) {
    --b->depth;
    return;
  }
  const std::uint64_t end = read_ticks();
  Frame& f = b->stack[--b->depth];
  const std::uint64_t dur = end - f.start;
  if (f.zone >= b->agg.size()) grow_zone_slots(*b, f.zone);
  Agg& a = b->agg[f.zone];
  ++a.count;
  a.total += dur;
  a.self += dur - std::min(dur, f.child);
  b->hist[f.zone].observe(static_cast<double>(dur));
  if (b->depth > 0) b->stack[b->depth - 1].child += dur;
  RawSample& sample = b->ring[b->ring_pos];
  sample.start = f.start;
  sample.dur = dur;
  sample.zone = f.zone;
  sample.depth = static_cast<std::uint32_t>(b->depth);
  b->ring_pos = (b->ring_pos + 1) & (kRingCapacity - 1);
  ++b->pushed;
}

ProfileReport Profiler::collect() {
  const bool test_clock = g_test_clock.load(std::memory_order_relaxed) != nullptr;
  const std::uint64_t t1_ticks = read_ticks();
  const std::uint64_t t1_steady = steady_ns();

  GlobalState& s = state();
  std::lock_guard<std::mutex> lk(s.m);

  double ns_per_tick = 1.0;
  if (!test_clock && t1_ticks > s.t0_ticks && t1_steady > s.t0_steady_ns) {
    ns_per_tick = static_cast<double>(t1_steady - s.t0_steady_ns) /
                  static_cast<double>(t1_ticks - s.t0_ticks);
  }

  ProfileReport report;
  report.zone_names = s.zone_names;
  report.span_ns =
      static_cast<double>(t1_ticks - s.t0_ticks) * ns_per_tick;

  // Deterministic buffer order: lane, then registration sequence.
  std::vector<const ProfBuffer*> bufs;
  bufs.reserve(s.buffers.size());
  for (const auto& b : s.buffers) bufs.push_back(b.get());
  std::sort(bufs.begin(), bufs.end(), [](const ProfBuffer* a, const ProfBuffer* b) {
    return a->lane != b->lane ? a->lane < b->lane : a->created_seq < b->created_seq;
  });

  std::vector<Agg> agg(s.zone_names.size());
  std::vector<LogHistogram> hist(s.zone_names.size());
  for (const ProfBuffer* b : bufs) {
    report.lanes = std::max(report.lanes, b->lane + 1);
    report.dropped_samples +=
        b->pushed > kRingCapacity ? b->pushed - kRingCapacity : 0;
    for (std::size_t z = 0; z < b->agg.size(); ++z) {
      agg[z].count += b->agg[z].count;
      agg[z].total += b->agg[z].total;
      agg[z].self += b->agg[z].self;
      hist[z].merge(b->hist[z]);
    }
    const std::size_t kept = static_cast<std::size_t>(
        std::min<std::uint64_t>(b->pushed, kRingCapacity));
    // Oldest-first: the ring cursor points at the oldest retained sample
    // once it has wrapped.
    const std::size_t begin = b->pushed > kRingCapacity ? b->ring_pos : 0;
    for (std::size_t i = 0; i < kept; ++i) {
      const RawSample& raw = b->ring[(begin + i) & (kRingCapacity - 1)];
      ZoneSample out;
      out.start_ns =
          static_cast<double>(raw.start - s.t0_ticks) * ns_per_tick;
      out.dur_ns = static_cast<double>(raw.dur) * ns_per_tick;
      out.zone = raw.zone;
      out.lane = b->lane;
      out.depth = raw.depth;
      report.samples.push_back(out);
    }
  }

  std::stable_sort(report.samples.begin(), report.samples.end(),
                   [](const ZoneSample& a, const ZoneSample& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.dur_ns > b.dur_ns;  // parents before children
                   });

  for (std::size_t z = 0; z < agg.size(); ++z) {
    if (agg[z].count == 0) continue;
    ZoneStat stat;
    stat.name = s.zone_names[z];
    stat.count = agg[z].count;
    stat.total_ns = scale_ticks(agg[z].total, ns_per_tick);
    stat.self_ns = scale_ticks(agg[z].self, ns_per_tick);
    stat.p50_ns = hist[z].quantile(0.50) * ns_per_tick;
    stat.p95_ns = hist[z].quantile(0.95) * ns_per_tick;
    stat.p99_ns = hist[z].quantile(0.99) * ns_per_tick;
    report.zones.push_back(std::move(stat));
  }
  std::sort(report.zones.begin(), report.zones.end(),
            [](const ZoneStat& a, const ZoneStat& b) { return a.name < b.name; });
  return report;
}

}  // namespace gridvc::obs
