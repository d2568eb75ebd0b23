// Observability layer: registry semantics, histogram bucket edges,
// trace serialization and ordering under cancelled/tombstoned events,
// ring-buffer wraparound, timeline reconstruction from a real engine
// run, and every lifecycle rule of the trace audit.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/error.hpp"
#include "gridftp/transfer_engine.hpp"
#include "net/network.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/trace_audit.hpp"
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
      sim.obs().emit({sim.now(), TraceEventType::kTaskSubmitted, id, 0, 0.0, 0.0});
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

  EXPECT_GT(sim.cancelled(), 0u);
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
  TraceAudit audit;
  for (const TraceEvent& e : read_trace_jsonl(in)) audit.emit(e);
  audit.finish();
  EXPECT_TRUE(audit.violations().empty());
  ASSERT_EQ(audit.transfers().size(), 1u);
  ASSERT_NE(audit.transfers().find(id), nullptr);
  const TransferTimeline& t = *audit.transfers().find(id);
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.bytes, GiB);
  EXPECT_EQ(t.delivered, GiB);
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
// Trace audit: each lifecycle rule on a minimal trace
// ---------------------------------------------------------------------------

/// Fold a JSONL trace through a fresh audit and finish it.
std::vector<TraceViolation> audit_violations(const std::string& jsonl) {
  TraceAudit audit;
  std::istringstream in(jsonl);
  for (const TraceEvent& e : read_trace_jsonl(in)) audit.emit(e);
  audit.finish();
  return audit.violations();
}

TEST(TraceAudit, EveryCloseEventClosesWhatItsRuleOpens) {
  // Every close path of every entity kind, a reopen after a close, and
  // the tolerated abort cases; anything a missing close left open would
  // be reported at end of trace.
  const auto violations = audit_violations(
      R"({"t":1,"ev":"transfer_aborted","id":1}
{"t":1,"ev":"transfer_retry","id":1,"aux":1}
{"t":2,"ev":"transfer_aborted","id":2}
{"t":2,"ev":"transfer_finished","id":2}
{"t":3,"ev":"transfer_aborted","id":3}
{"t":3,"ev":"transfer_aborted","id":3}
{"t":3,"ev":"transfer_aborted","id":3,"v2":1}
{"t":4,"ev":"transfer_finished","id":4}
{"t":5,"ev":"server_down","id":1}
{"t":6,"ev":"server_up","id":1}
{"t":6,"ev":"server_down","id":1}
{"t":7,"ev":"server_up","id":1}
{"t":8,"ev":"idc_outage_begin","id":1}
{"t":9,"ev":"idc_outage_end","id":1}
{"t":10,"ev":"front_session_opened","id":1}
{"t":10,"ev":"front_submit","id":1,"aux":1}
{"t":10,"ev":"front_submit","id":2,"aux":1}
{"t":10,"ev":"front_submit","id":3,"aux":1}
{"t":10,"ev":"front_reject","id":0,"aux":1}
{"t":11,"ev":"front_dispatch","id":1}
{"t":11,"ev":"front_shed","id":2}
{"t":11,"ev":"front_cancel","id":3}
{"t":12,"ev":"front_session_closed","id":1}
)");
  for (const TraceViolation& v : violations) ADD_FAILURE() << v.line << ": " << v.message;
}

TEST(TraceAudit, EachRuleRejectsItsMinimalBadTrace) {
  struct Case {
    const char* what;
    const char* trace;
    std::uint64_t line;  // 0: found at end of trace
    const char* message;
  };
  const Case cases[] = {
      {"empty trace", "", 0, "no events"},
      {"timestamp going backwards",
       R"({"t":2,"ev":"link_down","id":1}
{"t":1,"ev":"link_up","id":1})",
       2, "timestamp went backwards (1 after 2)"},
      {"abort left unresolved",
       R"({"t":1,"ev":"transfer_aborted","id":5,"aux":1}
{"t":2,"ev":"transfer_retry","id":6})",
       0, "1 aborted transfer(s) still open at end of trace (first: aborted transfer 5, since line 1)"},
      {"server down twice",
       R"({"t":1,"ev":"server_down","id":3}
{"t":2,"ev":"server_down","id":3})",
       2, "server_down: server 3 is already open (since line 1)"},
      {"server up without down",
       R"({"t":1,"ev":"server_down","id":2}
{"t":1,"ev":"server_up","id":3})",
       2, "server_up: server 3 is not open"},
      {"server down at end", R"({"t":1,"ev":"server_down","id":3})", 0,
       "1 server(s) still open at end of trace (first: server 3, since line 1)"},
      {"outage begun twice",
       R"({"t":1,"ev":"idc_outage_begin","id":1}
{"t":2,"ev":"idc_outage_begin","id":2})",
       2, "idc_outage_begin: IDC outage is already open (since line 1)"},
      {"outage ended without a begin", R"({"t":1,"ev":"idc_outage_end","id":1})", 1,
       "idc_outage_end: IDC outage is not open"},
      {"outage open at end", R"({"t":1,"ev":"idc_outage_begin","id":1})", 0,
       "1 IDC outage(s) still open at end of trace (first: IDC outage, since line 1)"},
      {"session opened twice",
       R"({"t":1,"ev":"front_session_opened","id":4}
{"t":2,"ev":"front_session_opened","id":4})",
       2, "front_session_opened: session 4 is already open (since line 1)"},
      {"session closed without opening", R"({"t":1,"ev":"front_session_closed","id":4})",
       1, "front_session_closed: session 4 is not open"},
      {"session open at end", R"({"t":1,"ev":"front_session_opened","id":4})", 0,
       "1 session(s) still open at end of trace (first: session 4, since line 1)"},
      {"submit on a closed session",
       R"({"t":1,"ev":"front_session_opened","id":4}
{"t":2,"ev":"front_session_closed","id":4}
{"t":3,"ev":"front_submit","id":7,"aux":4})",
       3, "front_submit: session 4 is not open"},
      {"reject on a session never opened",
       R"({"t":1,"ev":"front_session_opened","id":4}
{"t":2,"ev":"front_reject","id":0,"aux":5})",
       2, "front_reject: session 5 is not open"},
      {"ticket accepted twice",
       R"({"t":1,"ev":"front_session_opened","id":4}
{"t":2,"ev":"front_submit","id":7,"aux":4}
{"t":3,"ev":"front_submit","id":7,"aux":4})",
       3, "front_submit: ticket 7 is already open (since line 2)"},
      {"ticket resolved twice",
       R"({"t":1,"ev":"front_session_opened","id":4}
{"t":2,"ev":"front_submit","id":7,"aux":4}
{"t":3,"ev":"front_dispatch","id":7,"aux":1}
{"t":4,"ev":"front_shed","id":7})",
       4, "front_shed: ticket 7 is not open"},
      {"ticket never resolved",
       R"({"t":1,"ev":"front_session_opened","id":4}
{"t":2,"ev":"front_submit","id":7,"aux":4}
{"t":3,"ev":"front_session_closed","id":4})",
       0, "1 ticket(s) still open at end of trace (first: ticket 7, since line 2)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const auto violations = audit_violations(c.trace);
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations.front().line, c.line);
    EXPECT_EQ(violations.front().message, c.message);
  }
}

TEST(TraceAudit, TeesEveryEventAndMarksOpenAborts) {
  RingBufferTraceSink ring(8);
  TraceAudit audit(&ring);
  audit.emit({1.0, TraceEventType::kTransferSubmitted, 9, 1, 1024.0, 1.0});
  audit.emit({2.0, TraceEventType::kTransferAborted, 9, 1, 512.0, 0.0});
  audit.finish();
  EXPECT_EQ(ring.total_emitted(), 2u);
  EXPECT_EQ(audit.total(), 2u);
  EXPECT_EQ(audit.count(TraceEventType::kTransferAborted), 1u);
  ASSERT_EQ(audit.transfers().size(), 1u);
  ASSERT_NE(audit.transfers().find(9), nullptr);
  const TransferTimeline& t = *audit.transfers().find(9);
  EXPECT_TRUE(t.abort_open);
  EXPECT_EQ(t.aborts, 1u);
  EXPECT_EQ(t.bytes, 1024u);
  EXPECT_FALSE(t.finished);
}

// ---------------------------------------------------------------------------
// Simulator counters are registry-backed: the accessors read the registry
// ---------------------------------------------------------------------------

TEST(SimulatorCounters, ShimReadsRegistry) {
  sim::Simulator sim;
  sim.schedule_at(1.0, [] {});
  auto doomed = sim.schedule_at(2.0, [] {});
  doomed.cancel();
  sim.run();

  EXPECT_EQ(sim.scheduled(), 2u);
  EXPECT_EQ(sim.cancelled(), 1u);
  EXPECT_EQ(sim.dispatched(), 1u);
  EXPECT_EQ(sim.live_events(), 0u);

  const MetricsSnapshot snap = sim.obs().registry().snapshot();
  EXPECT_DOUBLE_EQ(snap.value("gridvc_sim_events_scheduled"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_sim_events_cancelled"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_sim_events_dispatched"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("gridvc_sim_events_live"), 0.0);
}

}  // namespace
}  // namespace gridvc::obs
