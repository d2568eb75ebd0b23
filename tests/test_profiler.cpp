// Zone profiler, log-bucket histogram and profile serialization.
//
// The profiler tests swap in a fake tick source (set_clock_for_test) so
// every duration — and therefore every serialized report — is
// deterministic; the ticks it returns are taken as nanoseconds verbatim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"
#include "obs/log_histogram.hpp"
#include "common/json.hpp"
#include "obs/profile_io.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace gridvc;
using obs::LogHistogram;
using obs::ProfileReport;
using obs::Profiler;

// Fake tick sources. A constant clock zeroes every duration; the step
// clock advances one tick per read, giving exact, schedule-independent
// durations for single-threaded hierarchy tests.
std::uint64_t constant_clock() { return 1000; }
std::uint64_t g_step = 0;
std::uint64_t step_clock() { return g_step++; }

struct ClockGuard {
  explicit ClockGuard(std::uint64_t (*fn)()) { Profiler::set_clock_for_test(fn); }
  ~ClockGuard() {
    Profiler::disable();
    Profiler::set_clock_for_test(nullptr);
  }
};

TEST(LogHistogram, QuantilesWithinSubBucketRelativeError) {
  // Log-normal-ish spread over nine decades; the reported quantile must
  // land within one sub-bucket (1/32 relative) of the exact order
  // statistic.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> exponent(-3.0, 6.0);
  std::vector<double> values;
  LogHistogram h;
  for (int i = 0; i < 20000; ++i) {
    const double v = std::pow(10.0, exponent(rng));
    values.push_back(v);
    h.observe(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.50, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double exact = values[rank - 1];
    const double approx = h.quantile(q);
    EXPECT_NEAR(approx, exact, exact / 32.0) << "q=" << q;
  }
}

TEST(LogHistogram, UnderflowExcludedFromQuantiles) {
  LogHistogram h;
  h.observe(0.0);
  h.observe(-5.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // nothing positive observed
  h.observe(8.0);
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 8.0 * (1.0 - 1.0 / 32.0));
  EXPECT_LE(p50, 8.0 * (1.0 + 1.0 / 32.0));
}

TEST(LogHistogram, MergeMatchesUnionOfObservations) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> exponent(-2.0, 4.0);
  LogHistogram a, b, u;
  for (int i = 0; i < 5000; ++i) {
    const double v = std::pow(10.0, exponent(rng));
    (i % 2 ? a : b).observe(v);
    u.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), u.total());
  // Summation order differs between the split and union histograms.
  EXPECT_NEAR(a.sum(), u.sum(), u.sum() * 1e-12);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), u.quantile(q));
  }
  const auto ba = a.buckets();
  const auto bu = u.buckets();
  ASSERT_EQ(ba.size(), bu.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].count, bu[i].count);
  }
}

// Zone-macro tests only exist when instrumentation is compiled in
// (GRIDVC_PROFILING=ON, the default); with it off the macro is (void)0
// and there is nothing to record.
#ifndef GRIDVC_PROF_DISABLED

TEST(Profiler, HierarchySelfExcludesChildTime) {
  g_step = 0;
  ClockGuard clock(&step_clock);
  Profiler::enable();
  {
    GRIDVC_PROF_ZONE("t.parent");  // start=t
    {
      GRIDVC_PROF_ZONE("t.child");  // start=t+1, end=t+2 -> dur 1
    }
  }  // end=t+3 -> dur 3, self 2
  Profiler::disable();
  const ProfileReport report = Profiler::collect();

  const auto find = [&](const std::string& name) -> const obs::ZoneStat* {
    for (const auto& z : report.zones) {
      if (z.name == name) return &z;
    }
    return nullptr;
  };
  const auto* parent = find("t.parent");
  const auto* child = find("t.child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(parent->count, 1u);
  EXPECT_EQ(parent->total_ns, 3u);
  EXPECT_EQ(parent->self_ns, 2u);
  EXPECT_EQ(child->total_ns, 1u);
  EXPECT_EQ(child->self_ns, 1u);
}

TEST(Profiler, DisabledZonesRecordNothing) {
  Profiler::disable();
  ClockGuard clock(&constant_clock);
  {
    GRIDVC_PROF_ZONE("t.disabled");
  }
  Profiler::enable();
  Profiler::disable();
  const ProfileReport report = Profiler::collect();
  for (const auto& z : report.zones) {
    EXPECT_NE(z.name, "t.disabled");
  }
}

// The exec layer runs the same index bodies at any lane count, so the
// merged per-zone call counts — and the digest built from them — must be
// byte-identical across thread counts.
ProfileReport profile_parallel_region(unsigned threads) {
  exec::set_default_threads(threads);
  Profiler::enable();
  exec::default_pool().parallel_for(64, [](std::size_t i) {
    GRIDVC_PROF_ZONE("t.region_item");
    if (i % 4 == 0) {
      GRIDVC_PROF_ZONE("t.region_item_slow");
    }
  });
  Profiler::disable();
  ProfileReport report = Profiler::collect();
  exec::set_default_threads(0);
  return report;
}

TEST(Profiler, DigestIsThreadCountInvariant) {
  ClockGuard clock(&constant_clock);
  const ProfileReport one = profile_parallel_region(1);
  const ProfileReport four = profile_parallel_region(4);

  std::ostringstream d1, d4;
  obs::write_profile_digest(d1, one);
  obs::write_profile_digest(d4, four);
  EXPECT_EQ(d1.str(), d4.str());
  EXPECT_NE(d1.str().find("t.region_item 64\n"), std::string::npos);
  EXPECT_NE(d1.str().find("t.region_item_slow 16\n"), std::string::npos);
}

TEST(Profiler, ChromeTraceRoundTrips) {
  g_step = 0;
  ClockGuard clock(&step_clock);
  Profiler::enable();
  for (int i = 0; i < 10; ++i) {
    GRIDVC_PROF_ZONE("t.roundtrip");
  }
  Profiler::disable();
  const ProfileReport report = Profiler::collect();

  std::ostringstream out;
  obs::write_chrome_trace(out, report);
  const ProfileReport back = obs::read_profile_json(out.str());

  std::ostringstream da, db;
  obs::write_profile_digest(da, report);
  obs::write_profile_digest(db, back);
  EXPECT_EQ(da.str(), db.str());
  ASSERT_FALSE(back.samples.empty());
  EXPECT_EQ(back.lanes, report.lanes);
}

TEST(ProfileIo, ParserRejectsMalformedJson) {
  EXPECT_THROW(parse_json("{\"a\": }"), ParseError);
  EXPECT_THROW(parse_json("{} trailing"), ParseError);
  EXPECT_THROW(obs::read_profile_json("{\"traceEvents\": []}"), ParseError);
}

TEST(ProfileIo, DiffReportsPerZoneDeltas) {
  g_step = 0;
  ClockGuard clock(&step_clock);
  Profiler::enable();
  {
    GRIDVC_PROF_ZONE("t.diff_zone");
  }
  Profiler::disable();
  const ProfileReport before = Profiler::collect();
  Profiler::enable();
  for (int i = 0; i < 3; ++i) {
    GRIDVC_PROF_ZONE("t.diff_zone");
  }
  Profiler::disable();
  const ProfileReport after = Profiler::collect();

  std::ostringstream out;
  obs::write_profile_diff(out, before, after);
  EXPECT_NE(out.str().find("t.diff_zone"), std::string::npos);
}

#endif  // GRIDVC_PROF_DISABLED

}  // namespace
