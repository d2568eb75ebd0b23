#include "workload/federation.hpp"

#include <string>

#include "common/error.hpp"
#include "exec/rng_stream.hpp"
#include "net/routing.hpp"

namespace gridvc::workload {

namespace {

// Stream-key salts so arrivals, per-file decisions, and link delays draw
// from independent streams of the same scenario seed.
constexpr std::uint64_t kArrivalSalt = 0xFEDA110CULL;
constexpr std::uint64_t kTransferSalt = 0xFED7AB1EULL;
constexpr std::uint64_t kDelaySalt = 0xFEDDE1A7ULL;

}  // namespace

std::uint32_t FederationScenario::origin_site(std::uint64_t u) const {
  const std::uint64_t host = u % (config.sites * config.hosts_per_site);
  return static_cast<std::uint32_t>(host / config.hosts_per_site);
}

std::uint32_t FederationScenario::origin_host(std::uint64_t u) const {
  const std::uint64_t host = u % (config.sites * config.hosts_per_site);
  return static_cast<std::uint32_t>(host % config.hosts_per_site);
}

Seconds FederationScenario::arrival_time(std::uint64_t u) const {
  Rng rng = exec::stream_rng(seed ^ kArrivalSalt, u);
  return rng.uniform(0.0, config.arrival_horizon);
}

FederationTransfer FederationScenario::transfer_params(std::uint64_t u,
                                                       std::uint32_t k) const {
  Rng rng = exec::stream_rng(seed ^ kTransferSalt,
                             u * 1024 + static_cast<std::uint64_t>(k));
  FederationTransfer t;
  const std::uint32_t src_site = origin_site(u);
  const std::uint32_t src_host = origin_host(u);
  const bool remote = config.sites > 1 && rng.bernoulli(config.remote_fraction);
  if (remote) {
    // Uniform over the other sites.
    const auto pick = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(config.sites) - 2));
    t.dst_site = pick >= src_site ? pick + 1 : pick;
    t.dst_host = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(config.hosts_per_site) - 1));
  } else {
    t.dst_site = src_site;
    if (config.hosts_per_site > 1) {
      const auto pick = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(config.hosts_per_site) - 2));
      t.dst_host = pick >= src_host ? pick + 1 : pick;
    } else {
      // Single-host sites cannot transfer to themselves; bounce off the
      // lexicographically next site instead.
      t.dst_site = (src_site + 1) % static_cast<std::uint32_t>(config.sites);
      t.dst_host = 0;
    }
  }
  const double factor = rng.lognormal(0.0, config.file_size_spread);
  t.size = static_cast<Bytes>(static_cast<double>(config.file_size) * factor);
  if (t.size < (1ULL << 20)) t.size = 1ULL << 20;
  t.wants_vc = rng.bernoulli(config.vc_fraction);
  return t;
}

void FederationScenario::route(std::uint64_t u, const FederationTransfer& t,
                               net::Path& path) const {
  const std::uint32_t src_site = origin_site(u);
  const std::uint32_t src_host = origin_host(u);
  const FederationSite& a = sites[src_site];
  const FederationSite& b = sites[t.dst_site];
  path.clear();
  path.push_back(a.host_up[src_host]);
  if (src_site == t.dst_site) {
    path.push_back(a.host_down[t.dst_host]);
    return;
  }
  path.push_back(a.edge_up);
  const net::Path& wan = site_route[src_site][t.dst_site];
  path.insert(path.end(), wan.begin(), wan.end());
  path.push_back(b.edge_down);
  path.push_back(b.host_down[t.dst_host]);
}

FederationScenario build_federation(const FederationConfig& config, std::uint64_t seed) {
  GRIDVC_REQUIRE(config.sites >= 2, "a federation needs at least two sites");
  GRIDVC_REQUIRE(config.hosts_per_site >= 1, "sites need at least one host");
  GRIDVC_REQUIRE(config.interdomain_delay_min > 0.0,
                 "inter-domain delay must be positive (it is the lookahead)");
  GRIDVC_REQUIRE(config.interdomain_delay_max >= config.interdomain_delay_min,
                 "inter-domain delay range is inverted");

  FederationScenario s;
  s.config = config;
  s.seed = seed;

  // Topology: per site, border + edge routers and the host cluster.
  std::uint64_t delay_stream = 0;
  const auto interdomain_delay = [&] {
    Rng rng = exec::stream_rng(seed ^ kDelaySalt, delay_stream++);
    return rng.uniform(config.interdomain_delay_min, config.interdomain_delay_max);
  };
  // Zero-padded site names: domain partitions order domains by name, so
  // lexicographic order must match site order ("site002" < "site010").
  const auto site_name = [](std::size_t i) {
    std::string n = std::to_string(i);
    while (n.size() < 3) n.insert(n.begin(), '0');
    return "site" + n;
  };
  for (std::size_t i = 0; i < config.sites; ++i) {
    const std::string site = site_name(i);
    FederationSite fs;
    fs.border = s.topo.add_node(site + ".bdr", net::NodeKind::kRouter, site);
    fs.edge = s.topo.add_node(site + ".edge", net::NodeKind::kRouter, site);
    const auto [eu, ed] = s.topo.add_duplex_link(fs.edge, fs.border,
                                                 config.backbone_capacity,
                                                 config.backbone_delay);
    fs.edge_up = eu;
    fs.edge_down = ed;
    for (std::size_t h = 0; h < config.hosts_per_site; ++h) {
      const net::NodeId host =
          s.topo.add_node(site + ".h" + std::to_string(h), net::NodeKind::kHost, site);
      const auto [hu, hd] =
          s.topo.add_duplex_link(host, fs.edge, config.access_capacity,
                                 config.access_delay);
      fs.hosts.push_back(host);
      fs.host_up.push_back(hu);
      fs.host_down.push_back(hd);
    }
    s.sites.push_back(std::move(fs));
  }
  s.host_ordinal.assign(s.topo.node_count(), FederationScenario::kNotAHost);
  for (std::size_t i = 0; i < config.sites; ++i) {
    for (std::size_t h = 0; h < config.hosts_per_site; ++h) {
      s.host_ordinal[s.sites[i].hosts[h]] =
          static_cast<std::uint32_t>(i * config.hosts_per_site + h);
    }
  }

  // WAN: a border ring, plus cross-chords every chord_stride sites so the
  // domain-hop diameter stays small at 20+ sites. Its links are the last
  // ones added, so they are exactly the links from `first_wan_link` on.
  const auto first_wan_link = static_cast<net::LinkId>(s.topo.link_count());
  for (std::size_t i = 0; i < config.sites; ++i) {
    const std::size_t j = (i + 1) % config.sites;
    s.topo.add_duplex_link(s.sites[i].border, s.sites[j].border,
                           config.interdomain_capacity, interdomain_delay());
  }
  if (config.sites >= 6 && config.chord_stride > 0) {
    for (std::size_t i = 0; i < config.sites; i += config.chord_stride) {
      const std::size_t j = (i + config.sites / 2) % config.sites;
      if (j == i || j == (i + 1) % config.sites ||
          i == (j + 1) % config.sites) {
        continue;
      }
      s.topo.add_duplex_link(s.sites[i].border, s.sites[j].border,
                             config.interdomain_capacity, interdomain_delay());
    }
  }

  // Border-to-border route table: one least-delay tree per site over the
  // WAN, the site's routes read off it. Worlds concatenate these with
  // access stubs per file. A search over the whole topology would find
  // the same routes: an edge router is a dead end behind its own border,
  // so only borders ever relax borders, in the same order and with the
  // same tie-break, and a border's predecessor is final once it settles.
  const net::LinkFilter wan = [first_wan_link](net::LinkId l) { return l >= first_wan_link; };
  net::RouteWorkspace ws;
  s.site_route.assign(config.sites, std::vector<net::Path>(config.sites));
  for (std::size_t a = 0; a < config.sites; ++a) {
    const net::NodeId src = s.sites[a].border;
    net::shortest_path_tree(s.topo, src, wan, ws);
    for (std::size_t b = 0; b < config.sites; ++b) {
      if (a == b) continue;
      const net::NodeId dst = s.sites[b].border;
      GRIDVC_REQUIRE(ws.via[dst] != net::kNoLink, "federation WAN is disconnected");
      net::tree_path(s.topo, ws.via, src, dst, s.site_route[a][b]);
    }
  }
  return s;
}

}  // namespace gridvc::workload
