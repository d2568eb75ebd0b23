// Failure/retry behavior of the TransferEngine (§II: GridFTP recovers
// from failures during transfers via restart markers), the BackoffPolicy
// that paces those retries, and the link-failure abort path.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "gridftp/backoff.hpp"
#include "gridftp/transfer_engine.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"

namespace gridvc::gridftp {
namespace {

struct Fixture {
  sim::Simulator sim;
  net::Topology topo;
  net::LinkId ab;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Server> src, dst;
  UsageStatsCollector collector;
  std::unique_ptr<TransferEngine> engine;

  explicit Fixture(double failure_probability, Seconds backoff = 5.0,
                   BitsPerSecond nic = gbps(4), int max_aborts = 8) {
    const auto a = topo.add_node("a", net::NodeKind::kHost);
    const auto b = topo.add_node("b", net::NodeKind::kHost);
    ab = topo.add_link(a, b, gbps(10), 0.005);
    network = std::make_unique<net::Network>(sim, topo);
    ServerConfig sc;
    sc.name = "src";
    sc.nic_rate = nic;
    src = std::make_unique<Server>(sc);
    sc.name = "dst";
    dst = std::make_unique<Server>(sc);
    TransferEngineConfig cfg;
    cfg.server_noise_sigma = 0.0;
    cfg.failure_probability = failure_probability;
    cfg.backoff = BackoffPolicy::fixed(backoff);
    cfg.max_aborts = max_aborts;
    cfg.tcp.stream_buffer = 64 * MiB;
    engine = std::make_unique<TransferEngine>(*network, collector, cfg, Rng(11));
  }

  TransferSpec spec(Bytes size) {
    TransferSpec s;
    s.src = {src.get(), IoMode::kMemory};
    s.dst = {dst.get(), IoMode::kMemory};
    s.path = {ab};
    s.rtt = 0.01;
    s.size = size;
    s.streams = 8;
    s.remote_host = "b";
    return s;
  }
};

TEST(Retries, NoFailuresByDefault) {
  Fixture f(0.0);
  for (int i = 0; i < 10; ++i) f.engine->submit(f.spec(GiB));
  f.sim.run();
  EXPECT_EQ(f.engine->stats().completed, 10u);
  EXPECT_EQ(f.engine->stats().attempts, 10u);
  EXPECT_EQ(f.engine->stats().failures, 0u);
}

TEST(Retries, AlwaysFailingTransferStillCompletes) {
  Fixture f(1.0);
  TransferRecord record{};
  f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { record = r; });
  f.sim.run();
  // With p=1 every attempt but the capped last one fails: exactly
  // kMaxAttempts (5) attempts, 4 failures, and completion.
  EXPECT_EQ(f.engine->stats().completed, 1u);
  EXPECT_EQ(f.engine->stats().attempts, 5u);
  EXPECT_EQ(f.engine->stats().failures, 4u);
  EXPECT_EQ(record.size, GiB);
  EXPECT_FALSE(record.failed);
  // The record's duration includes the four backoffs.
  EXPECT_GT(record.duration, 4 * 5.0);
}

TEST(Retries, FinalAttemptNeverFails) {
  // The "operator's patience" invariant: with p=1 the engine makes
  // exactly kMaxAttempts attempts per transfer, the last of which goes
  // through, however many transfers fail side by side.
  constexpr int kTransfers = 3;
  Fixture f(1.0, /*backoff=*/1.0);
  for (int i = 0; i < kTransfers; ++i) f.engine->submit(f.spec(256 * MiB));
  f.sim.run();
  constexpr auto kAttempts = static_cast<std::uint64_t>(TransferEngine::kMaxAttempts);
  EXPECT_EQ(f.engine->stats().completed, std::uint64_t{kTransfers});
  EXPECT_EQ(f.engine->stats().attempts, kTransfers * kAttempts);
  EXPECT_EQ(f.engine->stats().failures, kTransfers * (kAttempts - 1));
  EXPECT_EQ(f.engine->stats().failed_transfers, 0u);
}

TEST(Retries, FailedTransfersAreSlowerOnAverage) {
  std::vector<double> clean, flaky;
  {
    Fixture f(0.0);
    for (int i = 0; i < 20; ++i) {
      f.engine->submit(f.spec(GiB),
                       [&](const TransferRecord& r) { clean.push_back(r.duration); });
      f.sim.run();
    }
  }
  {
    Fixture f(0.5, /*backoff=*/10.0);
    for (int i = 0; i < 20; ++i) {
      f.engine->submit(f.spec(GiB),
                       [&](const TransferRecord& r) { flaky.push_back(r.duration); });
      f.sim.run();
    }
  }
  double clean_mean = 0.0, flaky_mean = 0.0;
  for (double d : clean) clean_mean += d;
  for (double d : flaky) flaky_mean += d;
  clean_mean /= static_cast<double>(clean.size());
  flaky_mean /= static_cast<double>(flaky.size());
  EXPECT_GT(flaky_mean, clean_mean + 5.0);
}

TEST(Retries, BytesConservedAcrossAttempts) {
  Fixture f(0.7);
  f.engine->submit(f.spec(2 * GiB));
  f.sim.run();
  // Every byte crossed the link exactly once: restart markers resume, not
  // re-send (the fluid model's idealization of partial-file restarts).
  EXPECT_NEAR(f.network->link_bytes(f.ab), static_cast<double>(2 * GiB), 16.0);
}

TEST(Retries, ServerSlotsHeldAcrossRetries) {
  Fixture f(1.0, /*backoff=*/50.0);
  f.engine->submit(f.spec(GiB));
  f.sim.run_until(60.0);  // inside a backoff window
  // The transfer is still registered at both servers while it waits.
  EXPECT_EQ(f.src->concurrency(), 1u);
  EXPECT_EQ(f.dst->concurrency(), 1u);
  f.sim.run();
  EXPECT_EQ(f.src->concurrency(), 0u);
  EXPECT_EQ(f.dst->concurrency(), 0u);
}

TEST(Retries, UsageStatsReportedOncePerTransfer) {
  Fixture f(0.8);
  for (int i = 0; i < 5; ++i) f.engine->submit(f.spec(256 * MiB));
  f.sim.run();
  EXPECT_EQ(f.collector.received(), 5u);
}

// ---------------------------------------------------------------------------
// set_guarantee across the attempt lifecycle
// ---------------------------------------------------------------------------

/// Trace sink that attaches a guarantee the moment the first of two
/// stripes completes (aux == live stripes left == 1) — exactly the racy
/// instant the mid-transfer circuit-activation bug lived at: the old
/// engine split the rate over *all* recorded stripe flows, completed ones
/// included, and pushing a guarantee to a finished flow blew up the
/// network layer.
struct GuaranteeOnStripeSink : obs::TraceSink {
  TransferEngine* engine = nullptr;
  std::uint64_t transfer_id = 0;
  BitsPerSecond guarantee = 0.0;
  int applied = 0;

  void emit(const obs::TraceEvent& e) override {
    if (e.type == obs::TraceEventType::kTransferStripeCompleted &&
        e.id == transfer_id && e.aux == 1) {
      engine->set_guarantee(transfer_id, guarantee);
      ++applied;
    }
  }
};

TEST(Retries, SetGuaranteeSplitsAcrossLiveFlowsOnly) {
  Fixture f(0.0);
  GuaranteeOnStripeSink sink;
  f.sim.obs().set_trace_sink(&sink);
  sink.engine = f.engine.get();
  sink.guarantee = gbps(2);

  TransferSpec s = f.spec(GiB);
  s.stripes = 2;
  TransferRecord record{};
  sink.transfer_id =
      f.engine->submit(s, [&](const TransferRecord& r) { record = r; });
  // Pre-fix this threw PreconditionError from inside the network layer
  // (guarantee pushed to the already-completed stripe's flow id).
  ASSERT_NO_THROW(f.sim.run());
  EXPECT_EQ(sink.applied, 1);
  EXPECT_EQ(f.engine->stats().completed, 1u);
  EXPECT_EQ(record.size, GiB);
}

TEST(Retries, SetGuaranteeDuringBackoffAppliesToNextAttempt) {
  // A competing best-effort hog shares the 10G link, so fair share gives
  // the transfer ~5G. A guarantee of 8G attached *during the backoff*
  // (no flows in flight) must be stored and carried into the retry
  // attempt's flows, which then finish measurably sooner.
  const auto run_once = [](bool set_during_backoff) {
    Fixture f(1.0, /*backoff=*/50.0, /*nic=*/gbps(20));
    f.network->start_flow({f.ab}, static_cast<Bytes>(1) << 55, {}, nullptr);
    TransferRecord record{};
    const std::uint64_t id =
        f.engine->submit(f.spec(4 * GiB), [&](const TransferRecord& r) { record = r; });
    f.sim.run_until(20.0);
    // Attempt 1 has failed and the retry is still waiting out the backoff.
    EXPECT_EQ(f.engine->stats().failures, 1u);
    EXPECT_EQ(f.engine->stats().attempts, 1u);
    if (set_during_backoff) {
      // Pre-fix this pushed the guarantee to the dead attempt's flow ids.
      f.engine->set_guarantee(id, gbps(8));
    }
    f.sim.run();
    EXPECT_EQ(f.engine->stats().completed, 1u);
    return record.duration;
  };
  const double without = run_once(false);
  const double with = run_once(true);
  EXPECT_LT(with, without - 1.0);
}

TEST(Retries, SetGuaranteeOnUnknownTransferIsIgnored) {
  Fixture f(0.0);
  TransferRecord record{};
  f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { record = r; });
  f.sim.run();
  // Circuit callbacks legitimately outlive the transfers they fed.
  EXPECT_NO_THROW(f.engine->set_guarantee(12345, gbps(1)));
  EXPECT_NO_THROW(f.engine->set_guarantee(1, 0.0));  // id 1 already finished
  EXPECT_FALSE(record.failed);
}

// ---------------------------------------------------------------------------
// Link-failure aborts
// ---------------------------------------------------------------------------

/// Trace sink that flaps a link shortly after a transfer's first bytes hit
/// the wire: down `down_after` seconds past kTransferStarted, back up
/// `up_after` seconds past it. Event-driven so the test does not depend on
/// the slow-start injection delay.
struct LinkFlapSink : obs::TraceSink {
  sim::Simulator* sim = nullptr;
  net::Network* network = nullptr;
  net::LinkId link = 0;
  Seconds down_after = 0.5;
  Seconds up_after = 1.5;
  bool armed = false;

  void emit(const obs::TraceEvent& e) override {
    if (e.type != obs::TraceEventType::kTransferStarted || armed) return;
    armed = true;
    sim->schedule_in(down_after, [this] { network->set_link_state(link, false); });
    sim->schedule_in(up_after, [this] { network->set_link_state(link, true); });
  }
};

TEST(Retries, LinkFailureAbortFeedsRestartMarkerRetry) {
  Fixture f(0.0, /*backoff=*/5.0);
  LinkFlapSink sink;
  sink.sim = &f.sim;
  sink.network = f.network.get();
  sink.link = f.ab;
  f.sim.obs().set_trace_sink(&sink);

  TransferRecord record{};
  f.engine->submit(f.spec(2 * GiB), [&](const TransferRecord& r) { record = r; });
  f.sim.run();

  // The outage killed attempt 1; the retry resumed from the restart
  // marker and completed.
  EXPECT_EQ(f.engine->stats().aborted_attempts, 1u);
  EXPECT_EQ(f.engine->stats().attempts, 2u);
  EXPECT_EQ(f.engine->stats().completed, 1u);
  EXPECT_EQ(f.engine->stats().failed_transfers, 0u);
  EXPECT_FALSE(record.failed);
  EXPECT_GT(record.duration, 5.0);  // includes the abort backoff
  // Restart markers: delivered bytes survive the abort, so each byte
  // crossed the link exactly once.
  EXPECT_NEAR(f.network->link_bytes(f.ab), static_cast<double>(2 * GiB), 16.0);
}

TEST(Retries, TransferFailsPermanentlyAfterMaxAborts) {
  Fixture f(0.0, /*backoff=*/5.0, gbps(4), /*max_aborts=*/1);
  LinkFlapSink sink;
  sink.sim = &f.sim;
  sink.network = f.network.get();
  sink.link = f.ab;
  f.sim.obs().set_trace_sink(&sink);

  TransferRecord record{};
  f.engine->submit(f.spec(2 * GiB), [&](const TransferRecord& r) { record = r; });
  f.sim.run();

  EXPECT_EQ(f.engine->stats().aborted_attempts, 1u);
  EXPECT_EQ(f.engine->stats().failed_transfers, 1u);
  EXPECT_EQ(f.engine->stats().completed, 0u);
  EXPECT_TRUE(record.failed);
  EXPECT_EQ(record.size, 2 * GiB);
  // Failed transfers are counted by the collector but never logged: the
  // paper's analyses run over completed transfers only.
  EXPECT_EQ(f.collector.failed(), 1u);
  EXPECT_EQ(f.collector.received(), 0u);
  // Servers released their slots despite the failure.
  EXPECT_EQ(f.src->concurrency(), 0u);
  EXPECT_EQ(f.dst->concurrency(), 0u);
  EXPECT_EQ(f.engine->active_transfers(), 0u);
}

TEST(Retries, AbortEventsCarryTerminalFlag) {
  obs::RingBufferTraceSink ring(1024);
  struct Tee : obs::TraceSink {
    obs::TraceSink* a = nullptr;
    obs::TraceSink* b = nullptr;
    void emit(const obs::TraceEvent& e) override {
      a->emit(e);
      b->emit(e);
    }
  };

  Fixture f(0.0, /*backoff=*/5.0, gbps(4), /*max_aborts=*/1);
  LinkFlapSink flap;
  flap.sim = &f.sim;
  flap.network = f.network.get();
  flap.link = f.ab;
  Tee tee;
  tee.a = &flap;
  tee.b = &ring;
  f.sim.obs().set_trace_sink(&tee);

  f.engine->submit(f.spec(2 * GiB));
  f.sim.run();

  int aborted = 0;
  for (const auto& e : ring.events()) {
    if (e.type == obs::TraceEventType::kTransferAborted) {
      ++aborted;
      EXPECT_DOUBLE_EQ(e.value2, 1.0);  // terminal: max_aborts reached
    }
  }
  EXPECT_EQ(aborted, 1);
}

// ---------------------------------------------------------------------------
// BackoffPolicy
// ---------------------------------------------------------------------------

TEST(BackoffPolicy, DefaultMatchesLegacyFixedFiveSeconds) {
  Rng rng(1);
  BackoffPolicy p;
  EXPECT_DOUBLE_EQ(p.delay(1, rng), 5.0);
  EXPECT_DOUBLE_EQ(p.delay(4, rng), 5.0);
}

TEST(BackoffPolicy, FixedIgnoresAttemptNumber) {
  Rng rng(1);
  const BackoffPolicy p = BackoffPolicy::fixed(7.5);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_DOUBLE_EQ(p.delay(attempt, rng), 7.5);
  }
}

TEST(BackoffPolicy, ExponentialGrowsAndCaps) {
  Rng rng(1);
  const BackoffPolicy p = BackoffPolicy::exponential(2.0, 2.0, /*cap=*/9.0);
  EXPECT_DOUBLE_EQ(p.delay(1, rng), 2.0);
  EXPECT_DOUBLE_EQ(p.delay(2, rng), 4.0);
  EXPECT_DOUBLE_EQ(p.delay(3, rng), 8.0);
  EXPECT_DOUBLE_EQ(p.delay(4, rng), 9.0);
  EXPECT_DOUBLE_EQ(p.delay(10, rng), 9.0);
}

TEST(BackoffPolicy, JitterStaysBoundedAndIsDeterministic) {
  const BackoffPolicy p = BackoffPolicy::exponential(10.0, 2.0, 300.0, /*jitter=*/0.5);
  Rng a(42), b(42);
  bool varied = false;
  double previous = -1.0;
  for (int i = 0; i < 32; ++i) {
    const double da = p.delay(1, a);
    const double db = p.delay(1, b);
    EXPECT_DOUBLE_EQ(da, db);  // same stream, same draws
    EXPECT_GE(da, 5.0);
    EXPECT_LT(da, 15.0);
    if (previous >= 0.0 && da != previous) varied = true;
    previous = da;
  }
  EXPECT_TRUE(varied);
}

TEST(BackoffPolicy, RejectsMalformedParameters) {
  Rng rng(1);
  BackoffPolicy p;
  p.jitter = 1.5;
  EXPECT_THROW(p.delay(1, rng), PreconditionError);
  p.jitter = 0.0;
  EXPECT_THROW(p.delay(0, rng), PreconditionError);
}

// ---------------------------------------------------------------------------
// Process-level faults: server crash and restart
// ---------------------------------------------------------------------------

/// Counts trace events by type (for asserting on stripe/crash lifecycle).
struct CountingSink final : obs::TraceSink {
  std::array<std::uint64_t, obs::kTraceEventTypeCount> counts{};
  void emit(const obs::TraceEvent& e) override {
    counts[static_cast<std::size_t>(e.type)]++;
  }
  std::uint64_t count(obs::TraceEventType t) const {
    return counts[static_cast<std::size_t>(t)];
  }
};

TEST(ServerCrash, AbortsParksAndResumesFromRestartMarkers) {
  Fixture f(0.0, /*backoff=*/1.0);
  TransferRecord record{};
  bool done = false;
  f.engine->submit(f.spec(2 * GiB), [&](const TransferRecord& r) {
    record = r;
    done = true;
  });
  f.sim.run_until(2.0);  // ~0.9 GiB moved at the 4 Gbps server ceiling
  f.engine->handle_server_down(f.dst.get());
  EXPECT_FALSE(f.dst->online());
  EXPECT_EQ(f.engine->waiting_transfers(), 1u);
  EXPECT_EQ(f.engine->stats().server_crashes, 1u);
  EXPECT_EQ(f.engine->stats().aborted_attempts, 1u);
  // The server stays down: the transfer is parked, neither finished nor
  // failed, and no retry burns attempts against the dead endpoint.
  f.sim.run_until(6.0);
  EXPECT_FALSE(done);
  EXPECT_EQ(f.engine->stats().attempts, 1u);
  f.engine->handle_server_up(f.dst.get());
  EXPECT_EQ(f.engine->waiting_transfers(), 0u);
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(record.failed);
  EXPECT_EQ(record.size, 2 * GiB);
  EXPECT_EQ(f.engine->stats().attempts, 2u);
  EXPECT_EQ(f.engine->stats().completed, 1u);
  // Restart markers: the retry (backoff 1 s after the restart) only moves
  // the remaining ~1.1 GiB. A from-scratch retransfer of 2 GiB at 4 Gbps
  // could not finish before t = 7 + 4.29; the marker credit can.
  const double full = static_cast<double>(2 * GiB) * 8.0 / gbps(4);
  EXPECT_LT(record.end_time(), 7.0 + full - 1.0);
  // Every byte crossed the link exactly once (markers resume, not re-send).
  EXPECT_NEAR(f.network->link_bytes(f.ab), static_cast<double>(2 * GiB), 16.0);
}

// Transfer records are reused, so storage order drifts from id order;
// the crash still aborts in ascending id order. T1 finishes early and T5
// takes its record, so storage order is T5, T2, T3, T4, T6.
TEST(ServerCrash, AbortsInIdOrderAfterStorageReuse) {
  Fixture f(0.0);
  struct AbortLog final : obs::TraceSink {
    std::vector<std::uint64_t> ids;
    void emit(const obs::TraceEvent& e) override {
      if (e.type == obs::TraceEventType::kTransferAborted) ids.push_back(e.id);
    }
  } sink;
  f.sim.obs().set_trace_sink(&sink);
  std::vector<std::uint64_t> ids;
  ids.push_back(f.engine->submit(f.spec(64 * MiB)));
  for (int i = 0; i < 3; ++i) ids.push_back(f.engine->submit(f.spec(8 * GiB)));
  f.sim.schedule_at(1.0, [&] {
    ids.push_back(f.engine->submit(f.spec(8 * GiB)));
    ids.push_back(f.engine->submit(f.spec(8 * GiB)));
  });
  f.sim.run_until(2.0);
  ASSERT_EQ(f.engine->stats().completed, 1u);  // T1
  f.engine->handle_server_down(f.src.get());
  EXPECT_EQ(sink.ids, std::vector<std::uint64_t>(ids.begin() + 1, ids.end()));
  EXPECT_EQ(f.engine->waiting_transfers(), 5u);
}

TEST(ServerCrash, StripedTransferResumesEveryStripe) {
  Fixture f(0.0, /*backoff=*/1.0);
  CountingSink sink;
  f.sim.obs().set_trace_sink(&sink);
  auto s = f.spec(2 * GiB);
  s.stripes = 4;
  TransferRecord record{};
  bool done = false;
  f.engine->submit(s, [&](const TransferRecord& r) {
    record = r;
    done = true;
  });
  f.sim.run_until(2.0);  // all four stripe flows are mid-flight
  ASSERT_EQ(sink.count(obs::TraceEventType::kTransferStripeCompleted), 0u);
  f.engine->handle_server_down(f.src.get());
  EXPECT_EQ(f.engine->waiting_transfers(), 1u);
  EXPECT_EQ(sink.count(obs::TraceEventType::kServerDown), 1u);
  f.sim.run_until(5.0);
  f.engine->handle_server_up(f.src.get());
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(record.failed);
  EXPECT_EQ(record.stripes, 4);
  // The resumed attempt re-stripes the remaining bytes across all four
  // servers: every stripe completes exactly once, none were lost to the
  // crash.
  EXPECT_EQ(sink.count(obs::TraceEventType::kTransferStripeCompleted), 4u);
  EXPECT_EQ(sink.count(obs::TraceEventType::kServerUp), 1u);
  EXPECT_EQ(sink.count(obs::TraceEventType::kTransferFinished), 1u);
  EXPECT_EQ(f.engine->stats().aborted_attempts, 1u);
  EXPECT_NEAR(f.network->link_bytes(f.ab), static_cast<double>(2 * GiB), 64.0);
  f.sim.obs().set_trace_sink(nullptr);
}

TEST(ServerCrash, SubmitWhileOfflineParksWithoutConsumingAnAttempt) {
  Fixture f(0.0, /*backoff=*/1.0);
  f.engine->handle_server_down(f.src.get());
  TransferRecord record{};
  bool done = false;
  f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) {
    record = r;
    done = true;
  });
  EXPECT_EQ(f.engine->waiting_transfers(), 1u);
  f.sim.run_until(10.0);
  EXPECT_FALSE(done);
  EXPECT_EQ(f.engine->stats().attempts, 0u);  // never got a control channel
  f.engine->handle_server_up(f.src.get());
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(record.failed);
  // First injection, not a retry: exactly one attempt, no aborts charged.
  EXPECT_EQ(f.engine->stats().attempts, 1u);
  EXPECT_EQ(f.engine->stats().aborted_attempts, 0u);
}

TEST(ServerCrash, RepeatedCrashesExhaustAbortBudget) {
  Fixture f(0.0, /*backoff=*/1.0, gbps(4), /*max_aborts=*/2);
  TransferRecord record{};
  bool done = false;
  f.engine->submit(f.spec(4 * GiB), [&](const TransferRecord& r) {
    record = r;
    done = true;
  });
  for (int i = 0; i < 2; ++i) {
    f.sim.run_until(static_cast<double>(i) * 4.0 + 2.0);
    f.engine->handle_server_down(f.dst.get());
    f.engine->handle_server_up(f.dst.get());
  }
  f.sim.run();
  ASSERT_TRUE(done);
  // Second crash hit the abort ceiling: permanent failure, not a retry.
  EXPECT_TRUE(record.failed);
  EXPECT_EQ(f.engine->stats().failed_transfers, 1u);
  EXPECT_EQ(f.engine->stats().aborted_attempts, 2u);
  EXPECT_EQ(f.engine->stats().completed, 0u);
  EXPECT_EQ(f.engine->waiting_transfers(), 0u);
}

}  // namespace
}  // namespace gridvc::gridftp
