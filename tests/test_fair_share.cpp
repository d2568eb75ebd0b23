#include "net/fair_share.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace gridvc::net {
namespace {

constexpr double kTol = 1e-2;  // bits/s tolerance for float accumulation

// One shared 10G link between two hosts plus a second 10G link, so flows
// can have 1- or 2-hop paths.
struct Fixture {
  Topology topo;
  LinkId l0, l1;
  Fixture() {
    const NodeId a = topo.add_node("a", NodeKind::kHost);
    const NodeId b = topo.add_node("b", NodeKind::kRouter);
    const NodeId c = topo.add_node("c", NodeKind::kHost);
    l0 = topo.add_link(a, b, gbps(10), 0.001);
    l1 = topo.add_link(b, c, gbps(10), 0.001);
  }
};

TEST(FairShare, EmptyInput) {
  Fixture f;
  const auto alloc = max_min_allocate(f.topo, {});
  EXPECT_TRUE(alloc.rates.empty());
}

TEST(FairShare, SingleFlowGetsLinkCapacity) {
  Fixture f;
  const auto alloc = max_min_allocate(f.topo, {{Path{f.l0}, 0.0, 0.0}});
  ASSERT_EQ(alloc.rates.size(), 1u);
  EXPECT_NEAR(alloc.rates[0], gbps(10), kTol);
}

TEST(FairShare, CapLimitsSingleFlow) {
  Fixture f;
  const auto alloc = max_min_allocate(f.topo, {{Path{f.l0}, mbps(500), 0.0}});
  EXPECT_NEAR(alloc.rates[0], mbps(500), kTol);
}

TEST(FairShare, EqualSplitOnBottleneck) {
  Fixture f;
  const std::vector<FlowDemand> flows{
      {Path{f.l0}, 0.0, 0.0}, {Path{f.l0}, 0.0, 0.0}, {Path{f.l0}, 0.0, 0.0}};
  const auto alloc = max_min_allocate(f.topo, flows);
  for (double r : alloc.rates) EXPECT_NEAR(r, gbps(10) / 3.0, 1.0);
}

TEST(FairShare, CappedFlowReleasesShareToOthers) {
  Fixture f;
  const std::vector<FlowDemand> flows{
      {Path{f.l0}, gbps(1), 0.0}, {Path{f.l0}, 0.0, 0.0}};
  const auto alloc = max_min_allocate(f.topo, flows);
  EXPECT_NEAR(alloc.rates[0], gbps(1), kTol);
  EXPECT_NEAR(alloc.rates[1], gbps(9), 1.0);
}

TEST(FairShare, MultiHopBottleneck) {
  Fixture f;
  // Flow A spans both links; flow B uses only l1. They split l1; A's
  // extra l0 capacity goes unused.
  const std::vector<FlowDemand> flows{
      {Path{f.l0, f.l1}, 0.0, 0.0}, {Path{f.l1}, 0.0, 0.0}};
  const auto alloc = max_min_allocate(f.topo, flows);
  EXPECT_NEAR(alloc.rates[0], gbps(5), 1.0);
  EXPECT_NEAR(alloc.rates[1], gbps(5), 1.0);
}

TEST(FairShare, GuaranteeIsHonoredUnderContention) {
  Fixture f;
  // VC flow guaranteed 8G vs 3 best-effort flows: VC gets >= 8G, the rest
  // share the remainder.
  const std::vector<FlowDemand> flows{
      {Path{f.l0}, 0.0, gbps(8)},
      {Path{f.l0}, 0.0, 0.0},
      {Path{f.l0}, 0.0, 0.0},
      {Path{f.l0}, 0.0, 0.0}};
  const auto alloc = max_min_allocate(f.topo, flows);
  EXPECT_GE(alloc.rates[0], gbps(8) - kTol);
  for (int i = 1; i < 4; ++i) EXPECT_LT(alloc.rates[i], gbps(1));
}

TEST(FairShare, GuaranteedFlowCanUseIdleHeadroom) {
  Fixture f;
  // Alone on the link, a VC flow is not limited to its guarantee.
  const auto alloc = max_min_allocate(f.topo, {{Path{f.l0}, 0.0, gbps(2)}});
  EXPECT_NEAR(alloc.rates[0], gbps(10), kTol);
}

TEST(FairShare, GuaranteeClippedByCap) {
  Fixture f;
  const auto alloc = max_min_allocate(f.topo, {{Path{f.l0}, mbps(100), gbps(5)}});
  EXPECT_NEAR(alloc.rates[0], mbps(100), kTol);
}

TEST(FairShare, OversubscribedGuaranteesScaledProportionally) {
  Fixture f;
  // Two 8G guarantees on a 10G link: scaled to 5G each, then no residual.
  const std::vector<FlowDemand> flows{
      {Path{f.l0}, gbps(5), gbps(8)}, {Path{f.l0}, gbps(5), gbps(8)}};
  const auto alloc = max_min_allocate(f.topo, flows);
  EXPECT_NEAR(alloc.rates[0], gbps(5), gbps(0.01));
  EXPECT_NEAR(alloc.rates[1], gbps(5), gbps(0.01));
}

// Property suite: random flow sets must satisfy the allocation invariants.
class FairShareProperty : public ::testing::TestWithParam<int> {};

TEST_P(FairShareProperty, ConservationAndCapRespect) {
  gridvc::Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Random chain topology of 3-6 links.
  Topology topo;
  const int hops = static_cast<int>(rng.uniform_int(3, 6));
  std::vector<NodeId> nodes;
  for (int i = 0; i <= hops; ++i) {
    nodes.push_back(topo.add_node("n" + std::to_string(i),
                                  i == 0 || i == hops ? NodeKind::kHost
                                                      : NodeKind::kRouter));
  }
  std::vector<LinkId> chain;
  for (int i = 0; i < hops; ++i) {
    chain.push_back(topo.add_link(nodes[static_cast<std::size_t>(i)],
                                  nodes[static_cast<std::size_t>(i) + 1],
                                  gbps(rng.uniform(1.0, 10.0)), 0.001));
  }

  // Random flows over random sub-chains, random caps/guarantees.
  std::vector<FlowDemand> flows;
  const int nflows = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < nflows; ++i) {
    const int from = static_cast<int>(rng.uniform_int(0, hops - 1));
    const int to = static_cast<int>(rng.uniform_int(from + 1, hops));
    Path p(chain.begin() + from, chain.begin() + to);
    FlowDemand d;
    d.path = std::move(p);
    d.cap = rng.bernoulli(0.5) ? mbps(rng.uniform(50.0, 5000.0)) : 0.0;
    d.guarantee = rng.bernoulli(0.3) ? mbps(rng.uniform(10.0, 800.0)) : 0.0;
    flows.push_back(std::move(d));
  }

  const auto alloc = max_min_allocate(topo, flows);
  ASSERT_EQ(alloc.rates.size(), flows.size());

  // (1) No link is oversubscribed.
  std::vector<double> load(topo.link_count(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_GE(alloc.rates[i], -kTol);
    for (LinkId l : flows[i].path) load[l] += alloc.rates[i];
  }
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    EXPECT_LE(load[l], topo.link(static_cast<LinkId>(l)).capacity + 1.0);
  }

  // (2) Caps are respected.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].cap > 0.0) {
      EXPECT_LE(alloc.rates[i], flows[i].cap + kTol);
    }
  }

  // (3) Pareto efficiency for uncapped flows: every uncapped flow has at
  // least one saturated link on its path (otherwise filling would have
  // continued).
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].cap > 0.0 && alloc.rates[i] >= flows[i].cap - 1.0) continue;
    bool saturated = false;
    for (LinkId l : flows[i].path) {
      if (load[l] >= topo.link(l).capacity - 1.0) saturated = true;
    }
    EXPECT_TRUE(saturated) << "flow " << i << " is starved below its cap "
                           << "with spare capacity on every link";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, FairShareProperty, ::testing::Range(1, 33));

// The zero-allocation workspace overload is the hot path the Network
// engine uses; it must agree bit-for-bit with the plain vector API on
// every input, including link-down masks and guarantees.
TEST(FairShare, WorkspaceOverloadMatchesPlainApi) {
  Fixture f;
  Rng rng(314);
  for (int round = 0; round < 50; ++round) {
    std::vector<FlowDemand> flows;
    const int n = static_cast<int>(rng.uniform_int(0, 24));
    for (int i = 0; i < n; ++i) {
      FlowDemand d;
      d.path = rng.bernoulli(0.5) ? Path{f.l0} : Path{f.l0, f.l1};
      if (rng.bernoulli(0.5)) d.cap = mbps(rng.uniform(10.0, 9000.0));
      if (rng.bernoulli(0.3)) d.guarantee = mbps(rng.uniform(10.0, 2000.0));
      flows.push_back(std::move(d));
    }
    std::vector<char> link_up(f.topo.link_count(), 1);
    if (rng.bernoulli(0.2)) link_up[1] = 0;

    const Allocation plain = max_min_allocate(f.topo, flows, link_up);

    std::vector<FlowDemandRef> refs;
    refs.reserve(flows.size());
    for (const auto& d : flows) refs.push_back({&d.path, d.cap, d.guarantee});
    AllocWorkspace ws;
    const std::vector<BitsPerSecond>& rates =
        max_min_allocate(f.topo, refs, link_up, ws);

    ASSERT_EQ(rates.size(), plain.rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
      ASSERT_DOUBLE_EQ(rates[i], plain.rates[i]) << "round " << round << " flow " << i;
    }
    // Reusing the workspace across rounds must not leak prior state: the
    // second call on the same inputs reproduces itself.
    const std::vector<BitsPerSecond> again(rates);
    const std::vector<BitsPerSecond>& rerun =
        max_min_allocate(f.topo, refs, link_up, ws);
    ASSERT_EQ(rerun, again);
  }
}

// Straight transcription of the pre-SoA scalar allocator (per-flow path
// chasing, flag-scan fill loop). The CSR/dense-list implementation is a
// layout change only, so it must reproduce this arithmetic sequence
// bit-for-bit.
std::vector<BitsPerSecond> scalar_reference_allocate(const Topology& topo,
                                                     const std::vector<FlowDemand>& flows,
                                                     const std::vector<char>& link_up) {
  constexpr double kRefEps = 1e-3;
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t nflows = flows.size();
  const std::size_t nlinks = topo.link_count();
  std::vector<BitsPerSecond> rates(nflows, 0.0);
  if (nflows == 0) return rates;
  std::vector<double> residual(nlinks, 0.0);
  for (std::size_t l = 0; l < nlinks; ++l) {
    const bool up = link_up.empty() || link_up[l] != 0;
    residual[l] = up ? topo.link(static_cast<LinkId>(l)).capacity : 0.0;
  }
  std::vector<double> guarantee_load(nlinks, 0.0);
  for (const auto& f : flows) {
    const double g = f.cap > 0.0 ? std::min(f.guarantee, f.cap) : f.guarantee;
    if (g <= 0.0) continue;
    for (LinkId l : f.path) guarantee_load[l] += g;
  }
  std::vector<double> link_scale(nlinks, 1.0);
  for (std::size_t l = 0; l < nlinks; ++l) {
    if (guarantee_load[l] > residual[l]) link_scale[l] = residual[l] / guarantee_load[l];
  }
  for (std::size_t i = 0; i < nflows; ++i) {
    double g = flows[i].cap > 0.0 ? std::min(flows[i].guarantee, flows[i].cap)
                                  : flows[i].guarantee;
    if (g <= 0.0) continue;
    double scale = 1.0;
    for (LinkId l : flows[i].path) scale = std::min(scale, link_scale[l]);
    rates[i] = g * scale;
  }
  for (std::size_t i = 0; i < nflows; ++i) {
    if (rates[i] <= 0.0) continue;
    for (LinkId l : flows[i].path) residual[l] = std::max(0.0, residual[l] - rates[i]);
  }
  std::vector<char> active(nflows, 0);
  std::vector<std::uint32_t> active_on_link(nlinks, 0);
  std::size_t active_count = 0;
  for (std::size_t i = 0; i < nflows; ++i) {
    if (flows[i].cap > 0.0 && rates[i] >= flows[i].cap - kRefEps) continue;
    active[i] = 1;
    ++active_count;
    for (LinkId l : flows[i].path) ++active_on_link[l];
  }
  for (std::size_t iter = 0; iter < nflows + nlinks + 1 && active_count > 0; ++iter) {
    double delta = inf;
    for (std::size_t l = 0; l < nlinks; ++l) {
      if (active_on_link[l] == 0) continue;
      delta = std::min(delta, residual[l] / static_cast<double>(active_on_link[l]));
    }
    for (std::size_t i = 0; i < nflows; ++i) {
      if (!active[i]) continue;
      if (flows[i].cap > 0.0) delta = std::min(delta, flows[i].cap - rates[i]);
    }
    if (delta == inf) break;
    delta = std::max(delta, 0.0);
    for (std::size_t i = 0; i < nflows; ++i) {
      if (!active[i]) continue;
      rates[i] += delta;
      for (LinkId l : flows[i].path) residual[l] -= delta;
    }
    bool froze = false;
    for (std::size_t i = 0; i < nflows; ++i) {
      if (!active[i]) continue;
      bool saturated = flows[i].cap > 0.0 && rates[i] >= flows[i].cap - kRefEps;
      if (!saturated) {
        for (LinkId l : flows[i].path) {
          if (residual[l] <= kRefEps) {
            saturated = true;
            break;
          }
        }
      }
      if (saturated) {
        active[i] = 0;
        --active_count;
        for (LinkId l : flows[i].path) --active_on_link[l];
        froze = true;
      }
    }
    if (!froze) break;
  }
  return rates;
}

// SoA-vs-scalar equivalence at scale: 10k flows over a 12-link backbone
// chain, mixed caps/guarantees/down-links, compared bit-for-bit against
// the scalar transcription above.
TEST(FairShare, SoALayoutMatchesScalarReferenceAt10kFlows) {
  Topology topo;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 13; ++i) {
    nodes.push_back(topo.add_node("n" + std::to_string(i),
                                  i == 0 || i == 12 ? NodeKind::kHost
                                                    : NodeKind::kRouter));
  }
  std::vector<LinkId> chain;
  for (int i = 0; i < 12; ++i) {
    chain.push_back(topo.add_link(nodes[static_cast<std::size_t>(i)],
                                  nodes[static_cast<std::size_t>(i) + 1], gbps(10),
                                  0.001));
  }
  Rng rng(20120);
  std::vector<FlowDemand> flows;
  flows.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    FlowDemand d;
    const int a = static_cast<int>(rng.uniform_int(0, 11));
    const int b = static_cast<int>(rng.uniform_int(a, 11));
    for (int l = a; l <= b; ++l) d.path.push_back(chain[static_cast<std::size_t>(l)]);
    if (rng.bernoulli(0.6)) d.cap = mbps(rng.uniform(1.0, 500.0));
    if (rng.bernoulli(0.2)) d.guarantee = mbps(rng.uniform(1.0, 100.0));
    flows.push_back(std::move(d));
  }
  std::vector<char> link_up(topo.link_count(), 1);
  link_up[5] = 0;  // one dead link in the middle of the chain

  const std::vector<BitsPerSecond> ref = scalar_reference_allocate(topo, flows, link_up);

  std::vector<FlowDemandRef> refs;
  refs.reserve(flows.size());
  for (const auto& d : flows) refs.push_back({&d.path, d.cap, d.guarantee});
  AllocWorkspace ws;
  const std::vector<BitsPerSecond>& rates = max_min_allocate(topo, refs, link_up, ws);

  ASSERT_EQ(rates.size(), ref.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    ASSERT_EQ(rates[i], ref[i]) << "flow " << i;
  }
  // And through the plain vector API (which routes through the SoA path).
  const Allocation plain = max_min_allocate(topo, flows, link_up);
  ASSERT_EQ(plain.rates, std::vector<BitsPerSecond>(rates.begin(), rates.end()));
}

// One workspace serves every topology and every call, and each call
// touches only the links its flows cross. Random sparse topologies (3-40
// nodes, up to 4x as many links) carry 0-8 flows per call, with down
// links crossed and not, infinite-capacity links, caps and guarantees;
// every call must match the scalar transcription exactly. Some calls
// name an unknown link and throw part-way through the build: the calls
// after them must not inherit their marks.
TEST(FairShare, SparseReusedWorkspaceMatchesScalarReference) {
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(2024);
  AllocWorkspace ws;
  std::size_t compared = 0;
  for (int t = 0; t < 200; ++t) {
    Topology topo;
    const int nodes = static_cast<int>(rng.uniform_int(3, 40));
    for (int n = 0; n < nodes; ++n) {
      topo.add_node("n" + std::to_string(n), NodeKind::kRouter);
    }
    const int links = static_cast<int>(rng.uniform_int(1, 4 * nodes));
    for (int k = 0; k < links; ++k) {
      const auto from = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
      auto to = static_cast<NodeId>(rng.uniform_int(0, nodes - 2));
      if (to >= from) ++to;
      topo.add_link(from, to, rng.bernoulli(0.15) ? inf : gbps(rng.uniform(1.0, 10.0)),
                    0.001);
    }
    for (int call = 0; call < 80; ++call) {
      std::vector<FlowDemand> flows(static_cast<std::size_t>(rng.uniform_int(0, 8)));
      for (FlowDemand& d : flows) {
        // A loop-free walk of up to 4 hops from a random link.
        d.path.push_back(static_cast<LinkId>(rng.uniform_int(0, links - 1)));
        const auto hops = static_cast<std::size_t>(rng.uniform_int(1, 4));
        while (d.path.size() < hops) {
          const auto& out = topo.outgoing(topo.link(d.path.back()).to);
          if (out.empty()) break;
          const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1);
          const LinkId next = out[static_cast<std::size_t>(pick)];
          if (std::find(d.path.begin(), d.path.end(), next) != d.path.end()) break;
          d.path.push_back(next);
        }
        if (rng.bernoulli(0.5)) d.cap = mbps(rng.uniform(100.0, 8000.0));
        if (rng.bernoulli(0.4)) d.guarantee = mbps(rng.uniform(100.0, 6000.0));
      }
      std::vector<char> link_up;
      if (rng.bernoulli(0.5)) {
        link_up.assign(topo.link_count(), 1);
        for (char& up : link_up) up = rng.bernoulli(0.1) ? 0 : 1;
      }
      std::vector<FlowDemandRef> refs;
      for (const FlowDemand& d : flows) refs.push_back({&d.path, d.cap, d.guarantee});

      if (rng.bernoulli(0.05)) {
        const Path unknown{static_cast<LinkId>(topo.link_count())};
        refs.push_back({&unknown, 0.0, 0.0});
        EXPECT_THROW(max_min_allocate(topo, refs, link_up, ws), PreconditionError);
        continue;
      }
      const std::vector<BitsPerSecond> ref = scalar_reference_allocate(topo, flows, link_up);
      const std::vector<BitsPerSecond>& rates = max_min_allocate(topo, refs, link_up, ws);
      ASSERT_EQ(rates, ref) << "topology " << t << " call " << call;

      std::vector<LinkId> used;
      for (const FlowDemand& d : flows) used.insert(used.end(), d.path.begin(), d.path.end());
      std::sort(used.begin(), used.end());
      used.erase(std::unique(used.begin(), used.end()), used.end());
      ASSERT_EQ(ws.used_links, used) << "topology " << t << " call " << call;
      ++compared;
    }
  }
  EXPECT_GT(compared, 15000u);
}

}  // namespace
}  // namespace gridvc::net
