// Observability layer: registry semantics, histogram bucket edges,
// trace serialization and ordering under cancelled/tombstoned events,
// ring-buffer wraparound, and timeline reconstruction from a real
// engine run.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "gridftp/transfer_engine.hpp"
#include "net/network.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace gridvc::obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, RegisterIncrementSnapshot) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("gridvc_test_count", "a counter");
  const MetricId g = reg.gauge("gridvc_test_level", "a gauge");
  reg.add(c);
  reg.add(c, 41);
  reg.set(g, 2.5);

  EXPECT_EQ(reg.counter_value(c), 42u);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), 2.5);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_test_count"), 42.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_test_level"), 2.5);
  EXPECT_EQ(snap.find("gridvc_test_count")->kind, MetricKind::kCounter);
  EXPECT_EQ(snap.find("nope"), nullptr);
  EXPECT_DOUBLE_EQ(snap.value("nope"), 0.0);
}

TEST(MetricsRegistry, ReRegistrationSharesTheSlot) {
  MetricsRegistry reg;
  const MetricId first = reg.counter("shared");
  const MetricId again = reg.counter("shared");
  EXPECT_EQ(first.slot, again.slot);
  reg.add(first);
  reg.add(again);
  EXPECT_EQ(reg.counter_value(first), 2u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, KindClashThrows) {
  MetricsRegistry reg;
  reg.counter("name");
  EXPECT_THROW(reg.gauge("name"), PreconditionError);
  EXPECT_THROW(reg.histogram("name", {1.0}), PreconditionError);
}

TEST(MetricsRegistry, FindReturnsInvalidForWrongKindOrMissing) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("only_counter");
  EXPECT_EQ(reg.find("only_counter", MetricKind::kCounter).slot, c.slot);
  EXPECT_FALSE(reg.find("only_counter", MetricKind::kGauge).valid());
  EXPECT_FALSE(reg.find("missing", MetricKind::kCounter).valid());
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("h", {1.0, 10.0});
  // Prometheus convention: bucket counts are <= le, so an observation
  // exactly on an edge lands in that edge's bucket.
  reg.observe(h, 0.5);   // bucket le=1
  reg.observe(h, 1.0);   // bucket le=1 (on the edge)
  reg.observe(h, 1.001); // bucket le=10
  reg.observe(h, 10.0);  // bucket le=10 (on the edge)
  reg.observe(h, 11.0);  // +Inf

  const MetricsSnapshot snap = reg.snapshot();
  const auto* e = snap.find("h");
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->histogram.counts.size(), 3u);
  EXPECT_EQ(e->histogram.counts[0], 2u);
  EXPECT_EQ(e->histogram.counts[1], 2u);
  EXPECT_EQ(e->histogram.counts[2], 1u);
  EXPECT_EQ(e->histogram.total, 5u);
  EXPECT_DOUBLE_EQ(e->histogram.sum, 0.5 + 1.0 + 1.001 + 10.0 + 11.0);
}

TEST(MetricsRegistry, ReRegistrationWithConflictingBoundsThrows) {
  MetricsRegistry reg;
  reg.histogram("edges", {1.0, 10.0});
  EXPECT_THROW(reg.histogram("edges", {1.0, 5.0}), PreconditionError);
  EXPECT_THROW(reg.histogram("edges", {1.0}), PreconditionError);
  // Identical bounds still share the slot.
  const MetricId again = reg.histogram("edges", {1.0, 10.0});
  EXPECT_TRUE(again.valid());
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, LogHistogramObserveSnapshotAndQuantiles) {
  MetricsRegistry reg;
  const MetricId h = reg.log_histogram("lat_log", "log-bucket latency");
  EXPECT_EQ(h.kind, MetricKind::kLogHistogram);
  for (int i = 1; i <= 100; ++i) reg.observe(h, static_cast<double>(i));

  const MetricsSnapshot snap = reg.snapshot();
  const auto* e = snap.find("lat_log");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricKind::kLogHistogram);
  EXPECT_TRUE(e->histogram.log_bucket);
  EXPECT_EQ(e->histogram.total, 100u);
  EXPECT_DOUBLE_EQ(e->histogram.sum, 5050.0);
  // Log buckets keep quantiles within 1/32 relative error.
  EXPECT_NEAR(e->histogram.p50, 50.0, 50.0 / 32.0);
  EXPECT_NEAR(e->histogram.p95, 95.0, 95.0 / 32.0);
  EXPECT_NEAR(e->histogram.p99, 99.0, 99.0 / 32.0);

  // Re-registration shares the slot; a kind clash still throws.
  EXPECT_EQ(reg.log_histogram("lat_log").slot, h.slot);
  EXPECT_THROW(reg.histogram("lat_log", {1.0}), PreconditionError);
  EXPECT_THROW(reg.counter("lat_log"), PreconditionError);
}

TEST(MetricsRegistry, LogHistogramExportsAsSummary) {
  MetricsRegistry reg;
  const MetricId h = reg.log_histogram("wait", "queue wait");
  reg.observe(h, 2.0);
  reg.observe(h, 4.0);
  std::ostringstream out;
  write_prometheus(out, reg.snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE wait summary"), std::string::npos);
  EXPECT_NE(text.find("wait{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("wait{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("wait_sum 6"), std::string::npos);
  EXPECT_NE(text.find("wait_count 2"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusCumulativeBuckets) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("lat", {1.0, 2.0}, "latency");
  reg.observe(h, 0.5);
  reg.observe(h, 1.5);
  reg.observe(h, 9.0);
  std::ostringstream out;
  write_prometheus(out, reg.snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 2"), std::string::npos);   // cumulative
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SimSpan
// ---------------------------------------------------------------------------

TEST(SimSpan, AttributesElapsedSimTime) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("span_seconds", {1.0, 10.0});
  SimSpan span = SimSpan::begin(5.0);
  EXPECT_DOUBLE_EQ(span.end_observe(reg, h, 12.5), 7.5);
  // Ending twice is a no-op.
  EXPECT_DOUBLE_EQ(span.end_observe(reg, h, 99.0), 0.0);
  const MetricsSnapshot snap = reg.snapshot();
  const auto* e = snap.find("span_seconds");
  EXPECT_EQ(e->histogram.total, 1u);
  EXPECT_DOUBLE_EQ(e->histogram.sum, 7.5);
}

// ---------------------------------------------------------------------------
// Trace serialization
// ---------------------------------------------------------------------------

TEST(Trace, JsonlRoundTrip) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  sink.emit({12.5, TraceEventType::kTransferSubmitted, 3, 2, 3.2e10, 8.0});
  sink.emit({13.0, TraceEventType::kNetRecompute, 0, 0, 0.0, 0.0});

  std::istringstream in(out.str());
  const auto events = read_trace_jsonl(in);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 12.5);
  EXPECT_EQ(events[0].type, TraceEventType::kTransferSubmitted);
  EXPECT_EQ(events[0].id, 3u);
  EXPECT_EQ(events[0].aux, 2u);
  EXPECT_DOUBLE_EQ(events[0].value, 3.2e10);
  EXPECT_DOUBLE_EQ(events[0].value2, 8.0);
  // Zero-valued optional fields round-trip as zero.
  EXPECT_EQ(events[1].aux, 0u);
  EXPECT_DOUBLE_EQ(events[1].value, 0.0);
}

TEST(Trace, ParseRejectsMalformedLines) {
  TraceEvent e;
  EXPECT_FALSE(parse_trace_line("", e));
  EXPECT_FALSE(parse_trace_line("   ", e));
  EXPECT_THROW(parse_trace_line("{\"ev\":\"net_recompute\"}", e), ParseError);  // no t/id
  EXPECT_THROW(parse_trace_line("{\"t\":1,\"ev\":\"bogus\",\"id\":1}", e), ParseError);
  EXPECT_THROW(parse_trace_line("not json", e), ParseError);
  // Only the sink's own flat shape is accepted.
  for (const char* line : {
           R"({"t":1,"ev":"link_up","id":1,"who":2})",  // unknown key
           R"({"t":1,"ev":"link_up","id":{}})",         // object value
           R"({"t":1,"ev":"link_up","id":1} x)",        // trailing bytes
           R"({"t":1,"ev":"link_up","id":"1"})",        // string id
           R"({"t":1,"ev":"link_up","id":1)",           // truncated
           R"({"t":0,"ev":"link_down","id":-1})",       // negative id
           R"({"t":0,"ev":"link_down","id":1e30})",     // id past 2^64
           R"({"t":0,"ev":"link_down","id":1.5})",      // fractional id
           R"({"t":0,"ev":"link_down","id":1,"aux":-2})",
           R"({"t":1e,"ev":"link_up","id":1})",  // half a number
       }) {
    EXPECT_THROW(parse_trace_line(line, e), ParseError) << line;
  }
}

TEST(Trace, EventNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(TraceEventType::kNetRecompute); ++i) {
    const auto type = static_cast<TraceEventType>(i);
    TraceEventType parsed;
    ASSERT_TRUE(parse_trace_event_name(trace_event_name(type), parsed));
    EXPECT_EQ(parsed, type);
  }
}

TEST(Trace, RingBufferWraparound) {
  RingBufferTraceSink ring(3);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ring.emit({static_cast<double>(i), TraceEventType::kNetRecompute, i, 0, 0.0, 0.0});
  }
  EXPECT_EQ(ring.total_emitted(), 5u);
  const auto kept = ring.events();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].id, 3u);  // oldest surviving
  EXPECT_EQ(kept[1].id, 4u);
  EXPECT_EQ(kept[2].id, 5u);
}

// ---------------------------------------------------------------------------
// Trace ordering under cancelled / tombstoned sim events
// ---------------------------------------------------------------------------

TEST(Trace, OrderingSurvivesCancelledAndTombstonedEvents) {
  sim::Simulator sim;
  RingBufferTraceSink ring(64);
  sim.obs().set_trace_sink(&ring);

  // Emit from dispatched events; interleave a burst of scheduled-then-
  // cancelled events so the pool accumulates tombstones and compacts.
  auto emit_at = [&](Seconds t, std::uint64_t id) {
    sim.schedule_at(t, [&, id] {
      sim.obs().emit({sim.now(), TraceEventType::kSessionOpened, id, 0, 0.0, 0.0});
    });
  };
  emit_at(1.0, 1);
  emit_at(5.0, 3);
  std::vector<sim::EventHandle> doomed;
  for (int i = 0; i < 200; ++i) {
    doomed.push_back(sim.schedule_at(2.0, [] {}));
  }
  emit_at(3.0, 2);
  for (auto& h : doomed) h.cancel();  // tombstones; may trigger compaction
  emit_at(7.0, 4);
  sim.run();

  EXPECT_GT(sim.counters().cancelled, 0u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i + 1) << "trace order must follow sim time";
    if (i > 0) {
      EXPECT_GE(events[i].time, events[i - 1].time);
    }
  }
}

// ---------------------------------------------------------------------------
// Four-layer integration: engine run -> trace -> timelines
// ---------------------------------------------------------------------------

TEST(Timelines, ReconstructedFromEngineRun) {
  sim::Simulator sim;
  std::ostringstream trace_text;
  JsonlTraceSink sink(trace_text);
  sim.obs().set_trace_sink(&sink);

  net::Topology topo;
  const auto a = topo.add_node("a", net::NodeKind::kHost);
  const auto b = topo.add_node("b", net::NodeKind::kHost);
  auto [ab, ba] = topo.add_duplex_link(a, b, gbps(10), 0.005);
  (void)ba;
  net::Network network(sim, topo);

  gridftp::ServerConfig sc;
  sc.name = "src";
  sc.nic_rate = gbps(4);
  gridftp::Server src(sc);
  sc.name = "dst";
  gridftp::Server dst(sc);

  gridftp::UsageStatsCollector collector;
  gridftp::TransferEngineConfig cfg;
  cfg.server_noise_sigma = 0.0;
  cfg.tcp.loss_probability = 0.0;
  cfg.tcp.stream_buffer = 64 * MiB;
  gridftp::TransferEngine engine(network, collector, cfg, Rng(5));

  gridftp::TransferSpec spec;
  spec.src = {&src, gridftp::IoMode::kMemory};
  spec.dst = {&dst, gridftp::IoMode::kMemory};
  spec.path = {ab};
  spec.rtt = 0.01;
  spec.size = GiB;
  spec.streams = 8;
  spec.stripes = 2;
  const std::uint64_t id = engine.submit(spec);
  sim.run();

  std::istringstream in(trace_text.str());
  const Timelines tl = build_timelines(read_trace_jsonl(in));
  ASSERT_EQ(tl.transfers.size(), 1u);
  ASSERT_EQ(tl.finished_transfers(), 1u);
  const TransferTimeline& t = tl.transfers.at(id);
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.bytes, GiB);
  EXPECT_EQ(t.stripes, 2u);
  EXPECT_EQ(t.streams, 8u);
  EXPECT_EQ(t.stripes_completed, 2u);
  EXPECT_EQ(t.retries, 0u);
  EXPECT_GT(t.queue_wait, 0.0);  // slow-start injection delay
  EXPECT_NEAR(t.start_time, t.submit_time + t.queue_wait, 1e-9);
  EXPECT_GT(t.finish_time, t.start_time);

  // The same run populated metrics in all instrumented layers it touched.
  const MetricsSnapshot snap = sim.obs().registry().snapshot();
  EXPECT_DOUBLE_EQ(snap.value("gridvc_gridftp_transfers_completed"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_net_flows_completed"), 2.0);  // 2 stripes
  EXPECT_GT(snap.value("gridvc_sim_events_dispatched"), 0.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_gridftp_bytes_moved"),
                   static_cast<double>(GiB));
}

// ---------------------------------------------------------------------------
// Simulator counters are registry-backed (the Counters shim)
// ---------------------------------------------------------------------------

TEST(SimulatorCounters, ShimReadsRegistry) {
  sim::Simulator sim;
  sim.schedule_at(1.0, [] {});
  auto doomed = sim.schedule_at(2.0, [] {});
  doomed.cancel();
  sim.run();

  const auto counters = sim.counters();
  EXPECT_EQ(counters.scheduled, 2u);
  EXPECT_EQ(counters.cancelled, 1u);
  EXPECT_EQ(counters.dispatched, 1u);
  EXPECT_EQ(counters.live, 0u);

  const MetricsSnapshot snap = sim.obs().registry().snapshot();
  EXPECT_DOUBLE_EQ(snap.value("gridvc_sim_events_scheduled"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_sim_events_cancelled"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_sim_events_dispatched"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_sim_events_live"), 0.0);
}

}  // namespace
}  // namespace gridvc::obs
