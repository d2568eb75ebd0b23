#include "gridftp/transfer_engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gridftp/session.hpp"
#include "net/network.hpp"

namespace gridvc::gridftp {
namespace {

// Deterministic fixture: zero noise, zero loss, so durations are exact.
struct Fixture {
  sim::Simulator sim;
  net::Topology topo;
  net::LinkId ab, ba;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Server> src_server, dst_server;
  UsageStatsCollector collector;
  std::unique_ptr<TransferEngine> engine;

  explicit Fixture(BitsPerSecond nic = gbps(4), double noise = 0.0,
                   int max_aborts = TransferEngineConfig{}.max_aborts) {
    const auto a = topo.add_node("a", net::NodeKind::kHost);
    const auto b = topo.add_node("b", net::NodeKind::kHost);
    auto [fwd, rev] = topo.add_duplex_link(a, b, gbps(10), 0.005);
    ab = fwd;
    ba = rev;
    network = std::make_unique<net::Network>(sim, topo);

    ServerConfig sc;
    sc.name = "src";
    sc.nic_rate = nic;
    src_server = std::make_unique<Server>(sc);
    sc.name = "dst";
    dst_server = std::make_unique<Server>(sc);

    TransferEngineConfig cfg;
    cfg.server_noise_sigma = noise;
    cfg.max_aborts = max_aborts;
    cfg.tcp.loss_probability = 0.0;
    cfg.tcp.stream_buffer = 64 * MiB;  // window never binds at 10 ms RTT
    engine = std::make_unique<TransferEngine>(*network, collector, cfg, Rng(5));
  }

  TransferSpec spec(Bytes size, int streams = 8, int stripes = 1) {
    TransferSpec s;
    s.src = {src_server.get(), IoMode::kMemory};
    s.dst = {dst_server.get(), IoMode::kMemory};
    s.path = {ab};
    s.rtt = 0.01;
    s.size = size;
    s.streams = streams;
    s.stripes = stripes;
    s.remote_host = "b";
    return s;
  }
};

TEST(TransferEngine, SingleTransferAtServerRate) {
  Fixture f;
  std::vector<TransferRecord> done;
  // 1 GiB at 4 Gbps server ceiling -> ~2.15 s (plus small slow-start).
  f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  const double expected = static_cast<double>(GiB) * 8.0 / gbps(4);
  EXPECT_NEAR(done[0].duration, expected, 0.25);
  EXPECT_EQ(done[0].size, GiB);
  EXPECT_EQ(f.collector.received(), 1u);
}

TEST(TransferEngine, RecordCarriesConfiguration) {
  Fixture f;
  std::vector<TransferRecord> done;
  auto s = f.spec(MiB, 4, 1);
  s.type = TransferType::kStore;
  f.engine->submit(s, [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].streams, 4);
  EXPECT_EQ(done[0].stripes, 1);
  EXPECT_EQ(done[0].type, TransferType::kStore);
  EXPECT_EQ(done[0].server_host, "dst");  // STOR logs at the receiving end
  EXPECT_EQ(done[0].remote_host, "b");
}

TEST(TransferEngine, ConcurrentTransfersContendAtServer) {
  Fixture f;
  std::vector<TransferRecord> done;
  // Two simultaneous 1 GiB transfers on a 4 Gbps server: each ~2 Gbps.
  for (int i = 0; i < 2; ++i) {
    f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { done.push_back(r); });
  }
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  const double solo = static_cast<double>(GiB) * 8.0 / gbps(4);
  for (const auto& r : done) {
    EXPECT_GT(r.duration, 1.8 * solo);
    EXPECT_LT(r.duration, 2.4 * solo);
  }
}

TEST(TransferEngine, LateArrivalSlowsFirstTransfer) {
  Fixture f;
  std::vector<TransferRecord> done;
  f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.schedule_at(1.0, [&] {
    f.engine->submit(f.spec(4 * GiB), [&](const TransferRecord& r) { done.push_back(r); });
  });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  const double solo = static_cast<double>(GiB) * 8.0 / gbps(4);
  EXPECT_GT(done[0].duration, solo * 1.2);  // slowed by the late arrival
}

// One link failure removes both transfers' flows before either callback
// runs. The first transfer to use up its aborts deregisters from the
// shared servers, and the cap refresh that follows must skip the second
// transfer's flow, which the failure has already removed.
TEST(TransferEngine, LinkFailureKillingTwoTransfersFailsBoth) {
  Fixture f(gbps(4), 0.0, /*max_aborts=*/1);
  std::vector<TransferRecord> done;
  for (int i = 0; i < 2; ++i) {
    f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { done.push_back(r); });
  }
  f.sim.schedule_at(1.0, [&] { f.network->set_link_state(f.ab, false); });
  ASSERT_NO_THROW(f.sim.run());
  ASSERT_EQ(done.size(), 2u);
  for (const auto& r : done) EXPECT_TRUE(r.failed);
  EXPECT_EQ(f.engine->stats().failed_transfers, 2u);
  EXPECT_EQ(f.network->active_flow_count(), 0u);
}

// A registration change at one server moves only the transfers
// registered there: a newcomer at the first transfer's source halves its
// rate, leaves a transfer on two other servers alone, and the first rate
// comes back when the newcomer leaves.
TEST(TransferEngine, ServerChangeMovesOnlyItsTransfers) {
  Fixture f;  // 4 Gbps NICs on a 10 Gbps link: the servers cap every rate
  ServerConfig sc;
  sc.nic_rate = gbps(4);
  sc.name = "src2";
  Server src2(sc);
  sc.name = "dst2";
  Server dst2(sc);
  sc.name = "dst3";
  Server dst3(sc);
  const Bytes first = 4 * GiB, second = 3 * GiB, third = 256 * MiB;
  auto disjoint = f.spec(second);
  disjoint.src = {&src2, IoMode::kMemory};
  disjoint.dst = {&dst2, IoMode::kMemory};
  auto newcomer = f.spec(third);  // shares the first transfer's source
  newcomer.dst = {&dst3, IoMode::kMemory};

  std::vector<TransferRecord> done;
  const auto record = [&](const TransferRecord& r) { done.push_back(r); };
  f.engine->submit(f.spec(first), record);
  f.engine->submit(disjoint, record);
  f.sim.schedule_at(1.0, [&] { f.engine->submit(newcomer, record); });

  // Each transfer runs one flow of its own size.
  const auto rate_of = [&](Bytes size) {
    for (net::FlowId id : f.network->active_flows()) {
      if (f.network->flow_size(id) == size) return f.network->current_rate(id);
    }
    return -1.0;
  };
  struct Sample {
    double first, second;
    std::size_t done;
  };
  std::vector<Sample> samples;
  for (const Seconds at : {0.5, 1.5, 4.0}) {
    f.sim.schedule_at(at, [&] {
      samples.push_back({rate_of(first), rate_of(second), done.size()});
    });
  }
  f.sim.run();

  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0].first, gbps(4));
  EXPECT_DOUBLE_EQ(samples[0].second, gbps(4));
  EXPECT_DOUBLE_EQ(samples[1].first, gbps(2));   // halved by the newcomer
  EXPECT_DOUBLE_EQ(samples[1].second, gbps(4));  // untouched
  EXPECT_EQ(samples[1].done, 0u);
  EXPECT_EQ(samples[2].done, 1u);                // the newcomer has left
  EXPECT_DOUBLE_EQ(samples[2].first, gbps(4));   // restored
  EXPECT_DOUBLE_EQ(samples[2].second, gbps(4));
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].size, third);
}

TEST(TransferEngine, StripesRaiseThroughputWithPool) {
  Fixture f;
  // Give both ends a 3-host pool; a 3-stripe transfer should run ~3x a
  // 1-stripe transfer.
  f.src_server->set_pool_size(3);
  f.dst_server->set_pool_size(3);
  std::vector<TransferRecord> done;
  f.engine->submit(f.spec(GiB, 8, 1), [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run();
  f.engine->submit(f.spec(GiB, 8, 3), [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_GT(done[0].duration / done[1].duration, 2.0);
}

TEST(TransferEngine, DiskEndpointLimitsThroughput) {
  Fixture f;
  ServerConfig slow_disk;
  slow_disk.name = "diskful";
  slow_disk.nic_rate = gbps(4);
  slow_disk.disk_write_rate = gbps(1);
  Server diskful(slow_disk);
  std::vector<TransferRecord> done;
  auto s = f.spec(GiB);
  s.dst = {&diskful, IoMode::kDiskWrite};
  f.engine->submit(s, [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run();
  ASSERT_EQ(done.size(), 1u);
  const double expected = static_cast<double>(GiB) * 8.0 / gbps(1);
  EXPECT_NEAR(done[0].duration, expected, 0.5);
}

TEST(TransferEngine, GuaranteeHoldsUnderCrossTraffic) {
  Fixture f(gbps(10));
  // Saturate the link with a best-effort background flow; a 6 Gbps
  // guaranteed transfer must still get its rate.
  f.network->start_flow({f.ab}, static_cast<Bytes>(1) << 50, {}, nullptr);
  std::vector<TransferRecord> done;
  auto s = f.spec(GiB);
  s.guarantee = gbps(6);
  f.engine->submit(s, [&](const TransferRecord& r) { done.push_back(r); });
  f.sim.run_until(1000.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GE(to_gbps(done[0].throughput()), 5.5);
}

TEST(TransferEngine, SetGuaranteeMidFlight) {
  Fixture f(gbps(10));
  f.network->start_flow({f.ab}, static_cast<Bytes>(1) << 50, {}, nullptr);
  std::vector<TransferRecord> done;
  const auto id =
      f.engine->submit(f.spec(GiB), [&](const TransferRecord& r) { done.push_back(r); });
  // Without a guarantee it shares 10G with the hog (5G each). Granting
  // 8G mid-flight should finish it markedly faster than the 5G baseline.
  f.sim.schedule_at(0.2, [&] { f.engine->set_guarantee(id, gbps(8)); });
  f.sim.run_until(1000.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GT(to_gbps(done[0].throughput()), 6.0);
}

TEST(TransferEngine, NoiseProducesVariance) {
  Fixture f(gbps(4), /*noise=*/0.3);
  std::vector<double> durations;
  for (int i = 0; i < 40; ++i) {
    f.engine->submit(f.spec(256 * MiB),
                     [&](const TransferRecord& r) { durations.push_back(r.duration); });
    f.sim.run();
  }
  ASSERT_EQ(durations.size(), 40u);
  double lo = durations[0], hi = durations[0];
  for (double d : durations) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_GT(hi / lo, 1.3);  // visible spread from lognormal noise
}

// Regression: submit() used size/stripes + 1 for the slow-start stripe
// size while begin_attempt used ceil-division; both now share
// stripe_chunk, whose contract is plain ceil-div.
TEST(TransferEngine, StripeChunkIsCeilDivision) {
  EXPECT_EQ(stripe_chunk(1000, 4), 250u);  // evenly divisible: no +1 slack
  EXPECT_EQ(stripe_chunk(1001, 4), 251u);
  EXPECT_EQ(stripe_chunk(1, 4), 1u);
  EXPECT_EQ(stripe_chunk(7, 1), 7u);
}

// Scheduler-churn regression: N overlapping window-capped transfers must
// stay O(N) in scheduled/cancelled events. The TCP window cap is a
// per-transfer constant, so neither arrivals nor completions change
// anyone else's rate and no completion is ever rescheduled.
TEST(TransferEngine, OverlappingTransfersChurnStaysLinear) {
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a", net::NodeKind::kHost);
  const auto b = topo.add_node("b", net::NodeKind::kHost);
  auto [fwd, rev] = topo.add_duplex_link(a, b, gbps(10), 0.005);
  (void)rev;
  net::Network network(sim, topo);

  ServerConfig sc;
  sc.name = "src";
  sc.nic_rate = gbps(100);  // shares never bind
  Server src(sc);
  sc.name = "dst";
  Server dst(sc);

  TransferEngineConfig cfg;
  cfg.server_noise_sigma = 0.0;
  cfg.tcp.loss_probability = 0.0;
  cfg.tcp.stream_buffer = 512 * KiB;  // window cap ~419 Mbps at 10 ms RTT
  UsageStatsCollector collector;
  TransferEngine engine(network, collector, cfg, Rng(5));

  const std::uint64_t n = 10;  // 10 * 419 Mbps < 10 Gbps: link never binds
  for (std::uint64_t i = 0; i < n; ++i) {
    TransferSpec s;
    s.src = {&src, IoMode::kMemory};
    s.dst = {&dst, IoMode::kMemory};
    s.path = {fwd};
    s.rtt = 0.01;
    s.size = 100'000'000 + 10'000'000 * i;  // staggered completions
    s.streams = 1;
    s.remote_host = "b";
    engine.submit(s);
  }
  sim.run();
  EXPECT_EQ(engine.stats().completed, n);
  const auto c = engine.sim_counters();
  // Per transfer: one injection event + one flow completion; allow a
  // small constant of slack but nothing resembling O(N^2).
  EXPECT_LE(c.scheduled, 4 * n);
  EXPECT_LE(c.cancelled, n);
  EXPECT_EQ(c.live, 0u);
}

TEST(SessionRunner, SequentialSessionBackToBack) {
  Fixture f;
  SessionRunner runner(f.sim, *f.engine);
  SessionScript script;
  script.file_sizes = {100 * MiB, 100 * MiB, 100 * MiB};
  script.concurrency = 1;
  script.transfer_template = f.spec(0);
  SessionSummary summary;
  runner.run(script, [&](const SessionSummary& s) { summary = s; });
  f.sim.run();
  EXPECT_EQ(summary.transfers, 3u);
  EXPECT_EQ(summary.total_bytes, 300 * MiB);
  EXPECT_GT(summary.duration(), 0.0);
  EXPECT_EQ(runner.active_sessions(), 0u);
  // Log order: strictly sequential starts.
  const auto& log = f.collector.log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_GE(log[1].start_time, log[0].end_time() - 1e-9);
}

TEST(SessionRunner, ConcurrentLanesOverlap) {
  Fixture f;
  SessionRunner runner(f.sim, *f.engine);
  SessionScript script;
  script.file_sizes = std::vector<Bytes>(4, 200 * MiB);
  script.concurrency = 2;
  script.transfer_template = f.spec(0);
  runner.run(script);
  f.sim.run();
  auto log = f.collector.log();
  sort_by_start(log);
  ASSERT_EQ(log.size(), 4u);
  // First two start together (negative inter-transfer gap in the
  // grouping sense).
  EXPECT_LT(log[1].start_time, log[0].end_time());
}

TEST(SessionRunner, InterFileGapDelaysSubmissions) {
  Fixture f;
  SessionRunner runner(f.sim, *f.engine);
  SessionScript script;
  script.file_sizes = {MiB, MiB};
  script.concurrency = 1;
  script.inter_file_gap = 30.0;
  script.transfer_template = f.spec(0);
  runner.run(script);
  f.sim.run();
  const auto& log = f.collector.log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_GE(log[1].start_time - log[0].end_time(), 30.0 - 1e-6);
}

TEST(SessionRunner, ManyConcurrentSessions) {
  Fixture f;
  SessionRunner runner(f.sim, *f.engine);
  int finished = 0;
  for (int i = 0; i < 5; ++i) {
    SessionScript script;
    script.file_sizes = {10 * MiB, 10 * MiB};
    script.transfer_template = f.spec(0);
    runner.run(script, [&](const SessionSummary&) { ++finished; });
  }
  f.sim.run();
  EXPECT_EQ(finished, 5);
  EXPECT_EQ(f.collector.received(), 10u);
}

}  // namespace
}  // namespace gridvc::gridftp
