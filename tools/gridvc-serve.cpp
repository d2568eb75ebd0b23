// gridvc-serve: the admission front-end as a wall-clock daemon.
//
//   gridvc-serve [--socket PATH] [--test-clock] [--time-scale X]
//                [--tenants N] [--max-active N] [--idle-timeout S]
//                [--rate R] [--quota-bytes B] [--metrics-out FILE]
//   gridvc-serve --client --socket PATH --script FILE
//   gridvc-serve --self-test
//
// Server mode binds a unix-domain socket (a leading '@' selects the
// Linux abstract namespace), builds a small two-DTN testbed with a
// TransferService behind the multi-tenant FrontEnd, and serves the
// newline-JSON wire protocol (src/frontend/wire.hpp) until SIGTERM.
// Tenants are named t1..tN with weights 1..N. --test-clock swaps the
// steady clock for a virtual one the daemon jumps between deadlines —
// sim hours per wall millisecond, same code path; --time-scale maps X
// sim seconds to each wall second on the real clock.
//
// Client mode connects and replays a script: each line is either a raw
// JSON request (sent verbatim) or a directive —
//   !waitdone <session> <ticket>   poll until the ticket is terminal
//   !expect <substring>            require the last response to contain it
// Responses are echoed to stdout. Exits nonzero on socket errors or a
// failed !expect.
//
// --self-test runs server and client in one process (daemon on a
// background thread, scripted client on main), raises SIGTERM, and
// verifies the daemon drains clean — the in-binary version of the CI
// daemon smoke (tests/cli_daemon_smoke.cmake runs the two-process one).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "frontend/admission.hpp"
#include "frontend/daemon.hpp"
#include "frontend/wall_clock.hpp"
#include "gridftp/server.hpp"
#include "gridftp/transfer_engine.hpp"
#include "gridftp/transfer_service.hpp"
#include "gridftp/usage_stats.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

using namespace gridvc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--test-clock] [--time-scale X]\n"
               "          [--tenants N] [--max-active N] [--idle-timeout S]\n"
               "          [--rate R] [--quota-bytes B] [--metrics-out FILE]\n"
               "       %s --client --socket PATH --script FILE\n"
               "       %s --self-test\n"
               "  --socket       unix socket path; '@name' = abstract namespace\n"
               "  --test-clock   virtual wall clock (jumps between deadlines)\n"
               "  --time-scale   sim seconds per wall second (real clock)\n"
               "  --tenants      tenants t1..tN, weights 1..N (default 3)\n"
               "  --max-active   backend active-task slots (default 4)\n"
               "  --idle-timeout reap sessions idle longer than S sim seconds\n"
               "  --rate         per-tenant submissions/sec token rate (0 = off)\n"
               "  --quota-bytes  per-tenant queued-bytes quota (0 = off)\n"
               "  --metrics-out  write a Prometheus metrics dump on exit\n"
               "  --client       connect and replay --script (JSONL + !directives)\n"
               "  --self-test    in-process server+client round trip, then SIGTERM\n",
               argv0, argv0, argv0);
  return 2;
}

/// Everything the served simulation is made of, kept alive together.
struct ServedStack {
  sim::Simulator sim;
  net::Topology topo;
  gridftp::ServerConfig src_cfg, dst_cfg;
  std::unique_ptr<gridftp::Server> source, sink;
  std::unique_ptr<net::Network> network;
  gridftp::UsageStatsCollector collector;
  std::unique_ptr<gridftp::TransferEngine> engine;
  std::unique_ptr<gridftp::TransferService> service;
  std::unique_ptr<frontend::FrontEnd> front;
  gridftp::TransferSpec tmpl;
};

std::unique_ptr<ServedStack> build_stack(std::size_t tenants, int max_active,
                                         Seconds idle_timeout, double rate,
                                         Bytes quota_bytes) {
  auto s = std::make_unique<ServedStack>();
  const auto src = s->topo.add_node("src-dtn", net::NodeKind::kHost);
  const auto edge_a = s->topo.add_node("edge-a", net::NodeKind::kRouter);
  const auto edge_b = s->topo.add_node("edge-b", net::NodeKind::kRouter);
  const auto dst = s->topo.add_node("dst-dtn", net::NodeKind::kHost);
  const auto [src_a, a_src] = s->topo.add_duplex_link(src, edge_a, gbps(10), 0.0005);
  const auto [a_b, b_a] = s->topo.add_duplex_link(edge_a, edge_b, gbps(10), 0.01);
  const auto [b_dst, dst_b] = s->topo.add_duplex_link(edge_b, dst, gbps(10), 0.0005);
  (void)a_src; (void)b_a; (void)dst_b;
  s->network = std::make_unique<net::Network>(s->sim, s->topo);

  s->src_cfg.name = "src-dtn";
  s->src_cfg.id = 1;
  s->src_cfg.nic_rate = gbps(10);
  s->source = std::make_unique<gridftp::Server>(s->src_cfg);
  s->dst_cfg = s->src_cfg;
  s->dst_cfg.name = "dst-dtn";
  s->dst_cfg.id = 2;
  s->sink = std::make_unique<gridftp::Server>(s->dst_cfg);

  // Nothing in the daemon reads the per-transfer log; counting keeps a
  // long-lived daemon's memory flat.
  s->collector.set_keep_log(false);
  gridftp::TransferEngineConfig ecfg;
  ecfg.server_noise_sigma = 0.0;  // daemon runs are reproducible
  s->engine = std::make_unique<gridftp::TransferEngine>(*s->network, s->collector,
                                                        ecfg, Rng(42));

  gridftp::TransferServiceConfig scfg;
  scfg.max_active_tasks = max_active;
  s->service = std::make_unique<gridftp::TransferService>(s->sim, *s->engine, scfg);

  frontend::FrontEndConfig fcfg;
  for (std::size_t i = 1; i <= tenants; ++i) {
    frontend::TenantConfig tc;
    tc.name = "t" + std::to_string(i);
    tc.weight = static_cast<double>(i);
    tc.submit_rate = rate;
    tc.max_queued_bytes = quota_bytes;
    fcfg.tenants.push_back(tc);
  }
  fcfg.session_idle_timeout = idle_timeout;
  fcfg.reap_interval = idle_timeout > 0.0 ? idle_timeout / 2.0 : 30.0;
  s->front = std::make_unique<frontend::FrontEnd>(s->sim, *s->service, fcfg);

  s->tmpl.src = {s->source.get(), gridftp::IoMode::kDiskRead};
  s->tmpl.dst = {s->sink.get(), gridftp::IoMode::kDiskWrite};
  s->tmpl.path = {src_a, a_b, b_dst};
  s->tmpl.rtt = 2.0 * s->topo.path_delay(s->tmpl.path);
  s->tmpl.remote_host = "dst-dtn";
  return s;
}

// ---------------------------------------------------------------- client

int client_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  socklen_t len;
  if (path[0] == '@') {
    std::memcpy(addr.sun_path + 1, path.data() + 1, path.size() - 1);
    len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
  } else {
    std::memcpy(addr.sun_path, path.data(), path.size());
    len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size() + 1);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, const std::string& line) {
  const std::string out = line + "\n";
  return ::send(fd, out.data(), out.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(out.size());
}

bool recv_line(int fd, std::string& pending, std::string& line) {
  std::size_t pos;
  while ((pos = pending.find('\n')) == std::string::npos) {
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    pending.append(chunk, static_cast<std::size_t>(n));
  }
  line = pending.substr(0, pos);
  pending.erase(0, pos + 1);
  return true;
}

/// Replay a script from `in` against the socket. Lines: JSON requests,
/// '#' comments, !waitdone, !expect. Echoes responses to `out`.
int run_client_script(int fd, std::istream& in, std::FILE* out) {
  std::string pending, line, last_response;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("!waitdone ", 0) == 0) {
      std::istringstream d(line.substr(10));
      std::uint64_t session = 0, ticket = 0;
      d >> session >> ticket;
      while (true) {
        std::ostringstream poll;
        poll << "{\"op\":\"poll\",\"session\":" << session
             << ",\"ticket\":" << ticket << "}";
        if (!send_line(fd, poll.str()) || !recv_line(fd, pending, last_response)) {
          std::fprintf(stderr, "gridvc-serve: connection lost in !waitdone\n");
          return 1;
        }
        if (last_response.find("\"state\":\"queued\"") == std::string::npos &&
            last_response.find("\"state\":\"dispatched\"") == std::string::npos) {
          break;
        }
      }
      std::fprintf(out, "%s\n", last_response.c_str());
      continue;
    }
    if (line.rfind("!expect ", 0) == 0) {
      const std::string needle = line.substr(8);
      if (last_response.find(needle) == std::string::npos) {
        std::fprintf(stderr, "gridvc-serve: expected '%s' in '%s'\n",
                     needle.c_str(), last_response.c_str());
        return 1;
      }
      continue;
    }
    if (!send_line(fd, line) || !recv_line(fd, pending, last_response)) {
      std::fprintf(stderr, "gridvc-serve: connection lost\n");
      return 1;
    }
    std::fprintf(out, "%s\n", last_response.c_str());
  }
  return 0;
}

// ------------------------------------------------------------- self-test

int self_test() {
  // No idle reaping here: a virtual clock jumps through idle sim time
  // between client requests, so any finite timeout would reap the
  // session mid-script. Reap behavior is covered in sim time by
  // test_frontend.
  auto stack = build_stack(/*tenants=*/2, /*max_active=*/2,
                           /*idle_timeout=*/0.0, /*rate=*/0.0,
                           /*quota_bytes=*/0);
  frontend::TestWallClock clock;
  frontend::DaemonConfig dcfg;
  dcfg.socket_path = "@gridvc-serve-selftest-" + std::to_string(::getpid());
  dcfg.transfer_template = stack->tmpl;
  frontend::Daemon daemon(stack->sim, *stack->front, clock, dcfg);
  frontend::Daemon::install_sigterm_handler();

  std::uint64_t handled = 0;
  std::thread server([&] {
    // The stack was built here but is driven from the server thread from
    // now on: hand it the metrics registry's single-writer ownership.
    stack->sim.obs().registry().rebind_owner();
    handled = daemon.run();
  });

  int fd = -1;
  for (int i = 0; i < 200 && fd < 0; ++i) {
    fd = client_connect(dcfg.socket_path);
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (fd < 0) {
    std::fprintf(stderr, "self-test: could not connect\n");
    daemon.request_shutdown();
    server.join();
    return 1;
  }
  const char* script =
      "{\"op\":\"ping\"}\n"
      "{\"op\":\"connect\",\"tenant\":\"t1\"}\n"
      "!expect \"session\":1\n"
      "{\"op\":\"submit\",\"session\":1,\"label\":\"st\",\"files\":[1048576],"
      "\"key\":\"k1\"}\n"
      "!expect \"ticket\":1\n"
      "{\"op\":\"submit\",\"session\":1,\"label\":\"st\",\"files\":[1048576],"
      "\"key\":\"k1\"}\n"
      "!expect \"duplicate\":true\n"
      "!waitdone 1 1\n"
      "!expect \"task_state\":\"succeeded\"\n"
      "{\"op\":\"stats\",\"tenant\":\"t1\"}\n"
      "!expect \"completed\":1\n"
      "{\"op\":\"disconnect\",\"session\":1}\n";
  std::istringstream in(script);
  const int rc = run_client_script(fd, in, stdout);
  ::close(fd);
  std::raise(SIGTERM);
  server.join();
  if (rc != 0) return rc;
  if (!stack->front->quiescent()) {
    std::fprintf(stderr, "self-test: front-end did not drain\n");
    return 1;
  }
  std::printf("self-test ok: %llu requests, drained clean\n",
              static_cast<unsigned long long>(handled));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "@gridvc-serve";
  std::string script_path, metrics_path;
  bool test_clock = false, client = false, selftest = false;
  double time_scale = 1.0, rate = 0.0;
  Seconds idle_timeout = 0.0;
  std::size_t tenants = 3;
  int max_active = 4;
  Bytes quota_bytes = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--test-clock") {
      test_clock = true;
    } else if (arg == "--time-scale" && i + 1 < argc) {
      time_scale = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--tenants" && i + 1 < argc) {
      tenants = parse_flag_count(arg, argv[++i]);
    } else if (arg == "--max-active" && i + 1 < argc) {
      max_active = parse_flag_count<int>(arg, argv[++i]);
    } else if (arg == "--idle-timeout" && i + 1 < argc) {
      idle_timeout = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--rate" && i + 1 < argc) {
      rate = parse_flag_number(arg, argv[++i]);
    } else if (arg == "--quota-bytes" && i + 1 < argc) {
      quota_bytes = parse_flag_count(arg, argv[++i]);
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--script" && i + 1 < argc) {
      script_path = argv[++i];
    } else if (arg == "--client") {
      client = true;
    } else if (arg == "--self-test") {
      selftest = true;
    } else {
      return usage(argv[0]);
    }
  }

  if (selftest) return self_test();

  if (client) {
    if (script_path.empty()) return usage(argv[0]);
    int fd = -1;
    for (int i = 0; i < 200 && fd < 0; ++i) {
      fd = client_connect(socket_path);
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (fd < 0) {
      std::fprintf(stderr, "gridvc-serve: cannot connect to '%s'\n",
                   socket_path.c_str());
      return 1;
    }
    std::ifstream in(script_path);
    if (!in) {
      std::fprintf(stderr, "gridvc-serve: cannot read '%s'\n", script_path.c_str());
      return 1;
    }
    const int rc = run_client_script(fd, in, stdout);
    ::close(fd);
    return rc;
  }

  if (tenants == 0 || max_active <= 0 || time_scale <= 0.0) return usage(argv[0]);
  auto stack = build_stack(tenants, max_active, idle_timeout, rate, quota_bytes);
  frontend::SteadyWallClock steady;
  frontend::TestWallClock virt;
  frontend::WallClock& clock =
      test_clock ? static_cast<frontend::WallClock&>(virt) : steady;
  frontend::DaemonConfig dcfg;
  dcfg.socket_path = socket_path;
  dcfg.time_scale = time_scale;
  dcfg.transfer_template = stack->tmpl;
  frontend::Daemon daemon(stack->sim, *stack->front, clock, dcfg);
  frontend::Daemon::install_sigterm_handler();
  std::fprintf(stderr, "gridvc-serve: listening on %s (%s clock, scale %g)\n",
               socket_path.c_str(), test_clock ? "test" : "steady", time_scale);
  const std::uint64_t handled = daemon.run();
  std::fprintf(stderr, "gridvc-serve: drained after %llu requests (quiescent=%d)\n",
               static_cast<unsigned long long>(handled),
               stack->front->quiescent() ? 1 : 0);
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    obs::write_prometheus(out, stack->sim.obs().registry().snapshot());
  }
  return stack->front->quiescent() ? 0 : 1;
}
