// Cross-module property suites: randomized scenarios checked against
// invariants that must hold for *every* realization, not just the
// calibrated defaults.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "analysis/session_grouping.hpp"
#include "common/rng.hpp"
#include "gridftp/transfer_engine.hpp"
#include "net/network.hpp"
#include "net/tcp_model.hpp"
#include "vc/idc.hpp"
#include "workload/profiles.hpp"
#include "workload/synth.hpp"
#include "workload/testbed.hpp"

namespace gridvc {
namespace {

// ---------------------------------------------------------------------------
// Network: byte conservation under random arrivals, cap churn, and aborts.
// ---------------------------------------------------------------------------

class NetworkConservation : public ::testing::TestWithParam<int> {};

TEST_P(NetworkConservation, LinkBytesEqualDeliveredBytes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 3);
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a", net::NodeKind::kHost);
  const auto r = topo.add_node("r", net::NodeKind::kRouter);
  const auto b = topo.add_node("b", net::NodeKind::kHost);
  const auto l1 = topo.add_link(a, r, gbps(rng.uniform(1.0, 10.0)), 0.001);
  const auto l2 = topo.add_link(r, b, gbps(rng.uniform(1.0, 10.0)), 0.001);
  net::Network network(sim, topo);

  double completed_bytes = 0.0;
  double aborted_remaining = 0.0;
  double aborted_delivered = 0.0;
  std::vector<net::FlowId> live;
  double offered = 0.0;

  const int arrivals = 40;
  double t = 0.0;
  // Events hold a reference to this body, which keeps each closure within
  // the simulator's inline callback capacity.
  const auto arrive = [&] {
    const Bytes size = static_cast<Bytes>(rng.uniform(1e6, 5e8));
    offered += static_cast<double>(size);
    net::FlowOptions opts;
    if (rng.bernoulli(0.4)) opts.cap = mbps(rng.uniform(50.0, 5000.0));
    if (rng.bernoulli(0.2)) opts.guarantee = mbps(rng.uniform(10.0, 500.0));
    const auto id = network.start_flow(
        {l1, l2}, size, opts,
        [&](const net::FlowRecord& rec) { completed_bytes += rec.size; });
    live.push_back(id);
    // Occasionally churn an existing flow.
    if (!live.empty() && rng.bernoulli(0.3)) {
      const auto victim = live[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
      // The victim may have completed already; guard with a lookup.
      const auto ids = network.active_flows();
      if (std::find(ids.begin(), ids.end(), victim) != ids.end()) {
        if (rng.bernoulli(0.5)) {
          network.update_cap(victim, mbps(rng.uniform(50.0, 2000.0)));
        } else {
          const double remaining =
              static_cast<double>(network.remaining_bytes(victim));
          aborted_remaining += remaining;
          aborted_delivered +=
              static_cast<double>(network.flow_size(victim)) - remaining;
          network.abort_flow(victim);
        }
      }
    }
  };
  for (int i = 0; i < arrivals; ++i) {
    t += rng.exponential(0.5);
    sim.schedule_at(t, std::ref(arrive));
  }
  sim.run();

  // Both links carried exactly the delivered bytes: completions plus the
  // partial progress of aborted flows. (An abort can race a zero-delay
  // completion event, in which case the "aborted" flow had fully
  // delivered; flow_size - remaining accounts for that correctly.)
  const double delivered = completed_bytes + aborted_delivered;
  EXPECT_NEAR(network.link_bytes(l1), delivered, 64.0);
  EXPECT_NEAR(network.link_bytes(l2), delivered, 64.0);
  EXPECT_NEAR(delivered + aborted_remaining, offered, 64.0);
  EXPECT_EQ(network.active_flow_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Random, NetworkConservation, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// TCP model: monotonicity and bounds over random configurations.
// ---------------------------------------------------------------------------

class TcpModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(TcpModelProperty, DurationBoundsAndMonotonicity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  net::TcpConfig cfg;
  cfg.slow_start_growth = rng.uniform(1.2, 2.0);
  if (rng.bernoulli(0.5)) {
    cfg.ssthresh_per_stream = static_cast<Bytes>(rng.uniform(6.4e4, 1e6));
    cfg.ca_mss_per_rtt = rng.uniform(1.0, 12.0);
  }
  const net::TcpModel tcp(cfg);
  const Seconds rtt = rng.uniform(0.01, 0.15);
  const BitsPerSecond share = mbps(rng.uniform(20.0, 5000.0));
  const int streams = static_cast<int>(rng.uniform_int(1, 16));

  Seconds prev = 0.0;
  for (double mb = 1.0; mb <= 4096.0; mb *= 4.0) {
    const Bytes size = static_cast<Bytes>(mb * static_cast<double>(MiB));
    const Seconds d = tcp.transfer_duration(size, streams, rtt, share);
    // Monotone in size.
    ASSERT_GT(d, prev);
    prev = d;
    // Never faster than the fluid bound at the steady rate.
    const BitsPerSecond steady = std::min(share, tcp.window_cap(streams, rtt));
    ASSERT_GE(d + 1e-9, transfer_time(size, steady));
    // Penalty is the exact difference to the fluid model.
    const Seconds penalty = tcp.slow_start_penalty(size, streams, rtt, share);
    ASSERT_NEAR(d, transfer_time(size, steady) + penalty, 1e-6);
  }

  // More streams never hurt (for fixed share and size).
  const Bytes probe = 64 * MiB;
  Seconds worse = tcp.transfer_duration(probe, 1, rtt, share);
  for (int n : {2, 4, 8, 16}) {
    const Seconds d = tcp.transfer_duration(probe, n, rtt, share);
    ASSERT_LE(d, worse + 1e-9);
    worse = d;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, TcpModelProperty, ::testing::Range(1, 17));

// ---------------------------------------------------------------------------
// IDC: admitted circuits never oversubscribe any link at any instant.
// ---------------------------------------------------------------------------

class IdcAdmissionProperty : public ::testing::TestWithParam<int> {};

TEST_P(IdcAdmissionProperty, ActiveGuaranteesStayWithinCapacity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 11);
  const auto tb = workload::build_esnet_testbed();
  sim::Simulator sim;
  vc::IdcConfig cfg;
  cfg.mode = vc::SignalingMode::kImmediate;
  vc::Idc idc(sim, tb.topo, cfg);

  const net::NodeId hosts[] = {tb.ncar, tb.nics, tb.slac, tb.bnl, tb.nersc, tb.ornl,
                               tb.anl};
  struct Booked {
    net::Path path;
    Seconds start, end;
    BitsPerSecond bw;
  };
  std::vector<Booked> accepted;

  for (int i = 0; i < 120; ++i) {
    vc::ReservationRequest req;
    req.src = hosts[rng.uniform_int(0, 6)];
    do {
      req.dst = hosts[rng.uniform_int(0, 6)];
    } while (req.dst == req.src);
    req.bandwidth = gbps(rng.uniform(0.5, 9.0));
    req.start_time = rng.uniform(0.0, 5000.0);
    req.end_time = req.start_time + rng.uniform(60.0, 2000.0);
    const auto result = idc.create_reservation(req);
    if (result.accepted()) {
      const auto& c = idc.circuit(*result.circuit_id);
      accepted.push_back(Booked{c.path, req.start_time, req.end_time, req.bandwidth});
    }
  }
  ASSERT_FALSE(accepted.empty());

  // Sample instants: at every reservation boundary, the sum of admitted
  // bandwidth per link stays within capacity.
  std::vector<Seconds> instants;
  for (const auto& b : accepted) {
    instants.push_back(b.start + 1e-6);
    instants.push_back(b.end - 1e-6);
  }
  for (Seconds t : instants) {
    std::map<net::LinkId, double> load;
    for (const auto& b : accepted) {
      if (t < b.start || t >= b.end) continue;
      for (net::LinkId l : b.path) load[l] += b.bw;
    }
    for (const auto& [link, bw] : load) {
      ASSERT_LE(bw, tb.topo.link(link).capacity + 1.0)
          << "link " << tb.topo.node(tb.topo.link(link).from).name << "->"
          << tb.topo.node(tb.topo.link(link).to).name << " oversubscribed at t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, IdcAdmissionProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Synthesizer + grouping: structural invariants across seeds.
// ---------------------------------------------------------------------------

class SynthProperty : public ::testing::TestWithParam<int> {};

TEST_P(SynthProperty, LogAndSessionInvariants) {
  auto profile = workload::slac_bnl_profile(0.003);
  const auto log =
      workload::synthesize_trace(profile, static_cast<std::uint64_t>(GetParam()));
  ASSERT_EQ(log.size(), profile.target_transfers);

  Bytes total_bytes = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    ASSERT_GT(log[i].size, 0u);
    ASSERT_GT(log[i].duration, 0.0);
    ASSERT_LE(log[i].duration, profile.max_transfer_duration + 1.0);
    if (i > 0) ASSERT_LE(log[i - 1].start_time, log[i].start_time);
    total_bytes += log[i].size;
    // Throughput never exceeds the profile's hard share cap.
    ASSERT_LE(log[i].throughput(), mbps(profile.share_cap_mbps) * 1.001);
  }

  // Sessions partition the log at every g.
  for (double g : {0.0, 60.0, 120.0}) {
    const auto sessions = analysis::group_sessions(log, {.gap = g});
    std::size_t transfers = 0;
    Bytes bytes = 0;
    for (const auto& s : sessions) {
      transfers += s.transfer_count();
      bytes += s.total_bytes;
    }
    ASSERT_EQ(transfers, log.size());
    ASSERT_EQ(bytes, total_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Transfer engine: accounting closes under random load with failures.
// ---------------------------------------------------------------------------

class EngineProperty : public ::testing::TestWithParam<int> {};

TEST_P(EngineProperty, AccountingClosesUnderRandomLoad) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 5);
  sim::Simulator sim;
  net::Topology topo;
  const auto a = topo.add_node("a", net::NodeKind::kHost);
  const auto b = topo.add_node("b", net::NodeKind::kHost);
  const auto ab = topo.add_link(a, b, gbps(10), 0.002);
  net::Network network(sim, topo);
  gridftp::ServerConfig sc;
  sc.name = "src";
  sc.nic_rate = gbps(6);
  gridftp::Server src(sc);
  sc.name = "dst";
  gridftp::Server dst(sc);
  gridftp::UsageStatsCollector collector;
  gridftp::TransferEngineConfig cfg;
  cfg.server_noise_sigma = rng.uniform(0.0, 0.4);
  cfg.failure_probability = rng.uniform(0.0, 0.6);
  cfg.tcp.loss_probability = rng.uniform(0.0, 0.05);
  gridftp::TransferEngine engine(network, collector, cfg, rng.fork(1));

  const int n = 30;
  double offered = 0.0;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(3.0);
    sim.schedule_at(t, [&] {
      gridftp::TransferSpec spec;
      spec.src = {&src, gridftp::IoMode::kMemory};
      spec.dst = {&dst, gridftp::IoMode::kMemory};
      spec.path = {ab};
      spec.rtt = 0.02;
      spec.size = static_cast<Bytes>(rng.uniform(1e7, 2e9));
      spec.streams = static_cast<int>(rng.uniform_int(1, 8));
      spec.stripes = static_cast<int>(rng.uniform_int(1, 3));
      spec.remote_host = "b";
      offered += static_cast<double>(spec.size);
      engine.submit(spec);
    });
  }
  sim.run();

  EXPECT_EQ(collector.received(), static_cast<std::size_t>(n));
  EXPECT_EQ(engine.stats().completed, static_cast<std::uint64_t>(n));
  EXPECT_GE(engine.stats().attempts, engine.stats().completed);
  EXPECT_EQ(engine.stats().attempts - engine.stats().failures,
            engine.stats().completed);
  EXPECT_EQ(engine.active_transfers(), 0u);
  EXPECT_EQ(src.concurrency(), 0u);
  EXPECT_EQ(dst.concurrency(), 0u);
  // Every offered byte crossed the link exactly once (restart markers
  // resume, never re-send); stripe rounding adds at most a few bytes per
  // attempt.
  EXPECT_NEAR(network.link_bytes(ab) / offered, 1.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Random, EngineProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace gridvc
