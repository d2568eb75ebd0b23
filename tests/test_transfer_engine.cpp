#include "gridftp/transfer_engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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

// The cap refresh visits only transfers with flows in flight (the
// changed server's streaming list) plus those that lost a stripe. Each
// test below makes one registration change reach one kind of transfer
// and checks the rate it leaves behind against a hand-computed share:
// 4 Gbps NICs on a 10 Gbps link, so server shares set every rate.
struct RefreshFixture : Fixture {
  Server other_src{named("src2")};
  Server other_dst{named("dst2")};

  static ServerConfig named(const char* name) {
    ServerConfig c;
    c.name = name;
    c.nic_rate = gbps(4);
    return c;
  }
  /// Rates of the live flows, ascending flow id.
  std::vector<BitsPerSecond> rates() const {
    std::vector<BitsPerSecond> out;
    for (net::FlowId id : network->active_flows()) out.push_back(network->current_rate(id));
    return out;
  }
  /// Schedule a rates() sample at `at`.
  void sample_at(Seconds at, std::vector<BitsPerSecond>& into) {
    sim.schedule_at(at, [this, &into] { into = rates(); });
  }
};

// (a) A newcomer registering at a streaming transfer's source halves
// that transfer's share: 4 Gbps / 2 transfers = 2 Gbps.
TEST(TransferEngine, RefreshReachesTransferStreamingOnChangedServer) {
  RefreshFixture f;
  auto newcomer = f.spec(GiB);
  newcomer.dst = {&f.other_dst, IoMode::kMemory};
  f.engine->submit(f.spec(4 * GiB));
  f.sim.schedule_at(1.0, [&] { f.engine->submit(newcomer); });
  std::vector<BitsPerSecond> before, after;
  f.sample_at(0.9, before);
  f.sample_at(1.0, after);  // right after the newcomer registered
  f.sim.run();
  ASSERT_EQ(before.size(), 1u);
  EXPECT_DOUBLE_EQ(before[0], gbps(4));
  ASSERT_EQ(after.size(), 1u);  // the newcomer is still in slow start
  EXPECT_DOUBLE_EQ(after[0], gbps(2));
}

// (b) A 2-stripe transfer whose faster stripe finished re-splits its cap
// over the stripe left at the next registration change anywhere, even
// at servers it does not use. The lagging stripe was throttled to 1 Gbps
// from outside; the re-split gives it the whole 8 Gbps transfer cap
// (2 engaged hosts x 4 Gbps).
TEST(TransferEngine, RefreshResplitsTransferThatLostAStripe) {
  RefreshFixture f;
  f.src_server->set_pool_size(2);
  f.dst_server->set_pool_size(2);
  auto unrelated = f.spec(GiB);
  unrelated.src = {&f.other_src, IoMode::kMemory};
  unrelated.dst = {&f.other_dst, IoMode::kMemory};
  unrelated.path = {f.ba};  // shares no link with the striped transfer
  f.engine->submit(f.spec(4 * GiB, 8, 2));
  std::vector<BitsPerSecond> split, lagging, resplit;
  f.sample_at(0.4, split);
  f.sim.schedule_at(0.5, [&] {
    const auto ids = f.network->active_flows();
    ASSERT_EQ(ids.size(), 2u);
    f.network->update_cap(ids[1], gbps(1));
  });
  f.sample_at(4.9, lagging);  // the 4 Gbps stripe is done by ~4.4 s
  f.sim.schedule_at(5.0, [&] { f.engine->submit(unrelated); });
  f.sample_at(5.0, resplit);
  f.sim.run();
  EXPECT_EQ(split, (std::vector<BitsPerSecond>{gbps(4), gbps(4)}));
  EXPECT_EQ(lagging, std::vector<BitsPerSecond>{gbps(1)});
  EXPECT_EQ(resplit, std::vector<BitsPerSecond>{gbps(8)});
}

// (c) A transfer aborted by a link failure streams again after its retry
// and is back on its servers' lists: a newcomer then halves it.
TEST(TransferEngine, RefreshReachesTransferStreamingAgainAfterRetry) {
  RefreshFixture f;
  auto newcomer = f.spec(GiB);
  newcomer.dst = {&f.other_dst, IoMode::kMemory};
  f.engine->submit(f.spec(8 * GiB));
  f.sim.schedule_at(1.0, [&] { f.network->set_link_state(f.ab, false); });
  f.sim.schedule_at(2.0, [&] { f.network->set_link_state(f.ab, true); });
  std::vector<BitsPerSecond> retried, halved;
  f.sample_at(7.9, retried);  // 5 s backoff + slow start after the abort
  f.sim.schedule_at(8.0, [&] { f.engine->submit(newcomer); });
  f.sample_at(8.0, halved);
  f.sim.run();
  EXPECT_EQ(f.engine->stats().aborted_attempts, 1u);
  EXPECT_EQ(f.engine->stats().attempts, 3u);  // two for the first transfer
  EXPECT_EQ(retried, std::vector<BitsPerSecond>{gbps(4)});
  EXPECT_EQ(halved, std::vector<BitsPerSecond>{gbps(2)});
}

// (d) Mid-flight pool and NIC changes reach the streaming transfer: a
// 2-stripe transfer on 2-host pools runs 4 + 4 Gbps; a 1-host source
// pool engages one host (4 Gbps, 2 per stripe); a 1 Gbps NIC then leaves
// 0.5 Gbps per stripe.
TEST(TransferEngine, RefreshFollowsMidFlightPoolAndNicChanges) {
  RefreshFixture f;
  f.src_server->set_pool_size(2);
  f.dst_server->set_pool_size(2);
  f.engine->submit(f.spec(8 * GiB, 8, 2));
  f.sim.schedule_at(1.0, [&] { f.src_server->set_pool_size(1); });
  f.sim.schedule_at(2.0, [&] { f.src_server->set_nic_rate(gbps(1)); });
  std::vector<BitsPerSecond> full, one_host, slow_nic;
  f.sample_at(0.9, full);
  f.sample_at(1.5, one_host);
  f.sample_at(2.5, slow_nic);
  f.sim.run();
  EXPECT_EQ(full, (std::vector<BitsPerSecond>{gbps(4), gbps(4)}));
  EXPECT_EQ(one_host, (std::vector<BitsPerSecond>{gbps(2), gbps(2)}));
  EXPECT_EQ(slow_nic, (std::vector<BitsPerSecond>{gbps(0.5), gbps(0.5)}));
}

// (e) A crash at the destination parks the transfer and takes it off
// both streaming lists, so a later change at its source (a newcomer)
// leaves it alone and the newcomer has the source to itself: 4 Gbps.
// Once the destination is back the retry streams and shares again.
TEST(TransferEngine, RefreshSkipsTransferParkedByCrash) {
  RefreshFixture f;
  auto newcomer = f.spec(8 * GiB);
  newcomer.dst = {&f.other_dst, IoMode::kMemory};
  f.engine->submit(f.spec(8 * GiB));
  f.sim.schedule_at(1.0, [&] { f.engine->handle_server_down(f.dst_server.get()); });
  f.sim.schedule_at(2.0, [&] { f.engine->submit(newcomer); });
  f.sim.schedule_at(3.0, [&] { f.engine->handle_server_up(f.dst_server.get()); });
  std::vector<BitsPerSecond> alone, shared;
  f.sample_at(2.9, alone);
  f.sample_at(9.0, shared);  // 5 s backoff + slow start after the restart
  ASSERT_NO_THROW(f.sim.run());
  EXPECT_EQ(f.engine->stats().server_crashes, 1u);
  EXPECT_EQ(alone, std::vector<BitsPerSecond>{gbps(4)});
  EXPECT_EQ(shared, (std::vector<BitsPerSecond>{gbps(2), gbps(2)}));
  EXPECT_EQ(f.engine->stats().completed, 2u);
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

}  // namespace
}  // namespace gridvc::gridftp
