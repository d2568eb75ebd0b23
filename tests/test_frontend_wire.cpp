#include "frontend/wire.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <ctime>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "frontend/daemon.hpp"
#include "frontend/wall_clock.hpp"
#include "net/network.hpp"

namespace gridvc::frontend {
namespace {

using gridftp::IoMode;
using gridftp::Server;
using gridftp::ServerConfig;
using gridftp::TransferEngine;
using gridftp::TransferEngineConfig;
using gridftp::TransferService;
using gridftp::TransferSpec;
using gridftp::UsageStatsCollector;

struct WireFixture {
  sim::Simulator sim;
  net::Topology topo;
  net::LinkId ab;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Server> src, dst;
  UsageStatsCollector collector;
  std::unique_ptr<TransferEngine> engine;
  std::unique_ptr<TransferService> service;
  std::unique_ptr<FrontEnd> front;
  std::unique_ptr<WireContext> ctx;

  explicit WireFixture(double submit_rate = 0.0) {
    const auto a = topo.add_node("a", net::NodeKind::kHost);
    const auto b = topo.add_node("b", net::NodeKind::kHost);
    ab = topo.add_link(a, b, gbps(10), 0.005);
    network = std::make_unique<net::Network>(sim, topo);
    ServerConfig sc;
    sc.name = "src";
    sc.nic_rate = gbps(8);
    src = std::make_unique<Server>(sc);
    sc.name = "dst";
    dst = std::make_unique<Server>(sc);
    TransferEngineConfig ecfg;
    ecfg.server_noise_sigma = 0.0;
    engine = std::make_unique<TransferEngine>(*network, collector, ecfg, Rng(3));
    service = std::make_unique<TransferService>(sim, *engine);
    FrontEndConfig fcfg;
    TenantConfig tc;
    tc.name = "acme";
    tc.submit_rate = submit_rate;
    if (submit_rate > 0) tc.submit_burst = 1.0;
    fcfg.tenants = {tc};
    front = std::make_unique<FrontEnd>(sim, *service, fcfg);
    TransferSpec tmpl;
    tmpl.src = {src.get(), IoMode::kMemory};
    tmpl.dst = {dst.get(), IoMode::kMemory};
    tmpl.path = {ab};
    tmpl.rtt = 0.01;
    tmpl.remote_host = "b";
    ctx = std::make_unique<WireContext>(WireContext{*front, sim, tmpl});
  }

  /// Run one request and parse the response back.
  Json roundtrip(const std::string& line, WireResult* raw = nullptr) {
    const WireResult r = handle_wire_line(*ctx, line);
    if (raw != nullptr) *raw = r;
    return parse_json(r.response);
  }
};

bool ok(const Json& res) {
  const Json* v = res.get("ok");
  return v != nullptr && v->type == Json::Type::kBool && v->boolean;
}

double num(const Json& res, const std::string& key) {
  const Json* v = res.get(key);
  EXPECT_NE(v, nullptr) << "missing key " << key;
  return v == nullptr ? -1.0 : v->number;
}

TEST(Wire, FullSessionRoundTrip) {
  WireFixture f;
  WireResult raw;
  Json res = f.roundtrip("{\"op\":\"connect\",\"tenant\":\"acme\"}", &raw);
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "session"), 1.0);
  ASSERT_TRUE(raw.opened_session.has_value());
  EXPECT_EQ(*raw.opened_session, 1u);

  res = f.roundtrip(
      "{\"op\":\"submit\",\"session\":1,\"label\":\"j\",\"files\":[1048576]}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "ticket"), 1.0);

  f.sim.run();
  res = f.roundtrip("{\"op\":\"poll\",\"session\":1,\"ticket\":1}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(res.get("state")->str, "done");
  EXPECT_EQ(res.get("task_state")->str, "succeeded");
  EXPECT_EQ(num(res, "bytes_done"), 1048576.0);

  res = f.roundtrip("{\"op\":\"stats\",\"tenant\":\"acme\"}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "completed"), 1.0);

  res = f.roundtrip("{\"op\":\"disconnect\",\"session\":1}", &raw);
  ASSERT_TRUE(ok(res));
  ASSERT_TRUE(raw.closed_session.has_value());
  EXPECT_EQ(*raw.closed_session, 1u);
}

TEST(Wire, RejectionIsNotAnError) {
  WireFixture f(/*submit_rate=*/1.0);  // 1 submission/sec, burst 1
  ASSERT_TRUE(ok(f.roundtrip("{\"op\":\"connect\",\"tenant\":\"acme\"}")));
  Json res =
      f.roundtrip("{\"op\":\"submit\",\"session\":1,\"files\":[1024]}");
  ASSERT_TRUE(ok(res));
  res = f.roundtrip("{\"op\":\"submit\",\"session\":1,\"files\":[1024]}");
  EXPECT_FALSE(ok(res));
  EXPECT_EQ(res.get("error"), nullptr);  // refusal, not an error
  EXPECT_TRUE(res.get("rejected")->boolean);
  EXPECT_EQ(res.get("reason")->str, "rate_limited");
  EXPECT_GT(num(res, "retry_after"), 0.0);
}

TEST(Wire, StructuralAndDomainErrors) {
  WireFixture f;
  EXPECT_FALSE(ok(f.roundtrip("not json at all")));
  EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"warp\"}")));
  EXPECT_FALSE(ok(f.roundtrip("{\"tenant\":\"acme\"}")));  // missing op
  EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"connect\",\"tenant\":\"ghost\"}")));
  EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"poll\",\"session\":7,\"ticket\":1}")));
  EXPECT_FALSE(ok(
      f.roundtrip("{\"op\":\"submit\",\"session\":1,\"files\":[-5]}")));
  // Ids are integers in [0, 2^64); a fractional or negative one is never
  // rounded onto a live session.
  const Json opened = f.roundtrip("{\"op\":\"connect\",\"tenant\":\"acme\"}");
  ASSERT_TRUE(ok(opened));
  const double session = num(opened, "session");
  for (const std::string& bad : {std::to_string(session + 0.5), std::string("-1")}) {
    EXPECT_FALSE(ok(f.roundtrip("{\"op\":\"disconnect\",\"session\":" + bad + "}")))
        << bad;
  }
  // Byte counts are whole numbers in [1, 2^53] and priority a whole
  // number in int range; anything else is refused, never cast (1.5 would
  // truncate to a 1-byte file, 1e300 is undefined as an integer).
  const std::string submit =
      "{\"op\":\"submit\",\"session\":" + std::to_string(static_cast<int>(session)) + ",";
  for (const char* files :
       {"[1.5]", "[0.5]", "[0]", "[1e300]", "[9007199254740994]", "[1024,2.25]"}) {
    const Json res = f.roundtrip(submit + "\"files\":" + files + "}");
    EXPECT_FALSE(ok(res)) << files;
    EXPECT_NE(res.get("error"), nullptr) << files;
  }
  for (const char* priority : {"1.5", "-0.5", "1e300", "2147483648", "-2147483649"}) {
    const Json res = f.roundtrip(submit + "\"files\":[1024],\"priority\":" + priority + "}");
    EXPECT_FALSE(ok(res)) << priority;
    EXPECT_NE(res.get("error"), nullptr) << priority;
  }
  // The bounds themselves pass: sent on an unknown session (so nothing is
  // queued), the refusal comes from the session lookup.
  const Json edge = f.roundtrip(
      "{\"op\":\"submit\",\"session\":999,\"files\":[9007199254740992],"
      "\"priority\":-2147483648}");
  ASSERT_NE(edge.get("error"), nullptr);
  EXPECT_NE(edge.get("error")->str.find("unknown session"), std::string::npos)
      << edge.get("error")->str;
  EXPECT_TRUE(ok(f.roundtrip(submit + "\"files\":[1],\"priority\":2147483647}")));
  EXPECT_TRUE(ok(f.roundtrip("{\"op\":\"disconnect\",\"session\":" +
                             std::to_string(static_cast<int>(session)) + "}")));
  // A failed request never reports session bookkeeping.
  WireResult raw;
  (void)f.roundtrip("{\"op\":\"connect\",\"tenant\":\"ghost\"}", &raw);
  EXPECT_FALSE(raw.opened_session.has_value());
}

TEST(Wire, PingReportsSimTime) {
  WireFixture f;
  f.sim.run_until(12.5);
  const Json res = f.roundtrip("{\"op\":\"ping\"}");
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(num(res, "time"), 12.5);
}

/// A client socket. Declared after the daemon it talks to, it closes
/// first, so a failed assertion never leaves the daemon writing to it.
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  int fd() const { return fd_; }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
};

/// A daemon serving a WireFixture on its own thread with the real clock,
/// as gridvc-serve does, plus the client side of its socket.
struct ServedDaemon {
  WireFixture f;
  SteadyWallClock clock;
  std::string path;
  Daemon daemon;
  std::future<std::uint64_t> served;

  explicit ServedDaemon(const std::string& name)
      : path("@gridvc-wire-test-" + name + "-" + std::to_string(::getpid())),
        daemon(f.sim, *f.front, clock,
               DaemonConfig{.socket_path = path,
                            .transfer_template = f.ctx->transfer_template}) {
    served = std::async(std::launch::async, [this] {
      // Built on the test thread, driven from this one from now on.
      f.sim.obs().registry().rebind_owner();
      return daemon.run();
    });
  }
  ~ServedDaemon() {
    daemon.request_shutdown();
    if (served.valid()) served.wait();
  }

  /// Shut the daemon down; true if run() returned within `limit`. The
  /// front-end may be read after a true return.
  bool stop_within(std::chrono::milliseconds limit) {
    daemon.request_shutdown();
    return served.wait_for(limit) == std::future_status::ready;
  }

  /// A blocking connection, retried until the daemon listens; fd -1 if
  /// it never does.
  Client connect() const {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path + 1, path.data() + 1, path.size() - 1);
    const auto len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
    int fd = -1;
    for (int attempt = 0; attempt < 400 && fd < 0; ++attempt) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
        ::close(fd);
        fd = -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    return Client(fd);
  }
};

bool send_all(int fd, const std::string& bytes) {
  for (std::size_t sent = 0; sent < bytes.size();) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read until `count` lines arrived, the daemon closed the connection,
/// or `limit` passed. Returns the complete lines read.
std::vector<std::string> read_lines(int fd, std::size_t count,
                                    std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  std::vector<std::string> lines;
  std::string pending;
  while (lines.size() < count) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{fd, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0) break;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    pending.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      lines.push_back(pending.substr(0, nl));
      pending.erase(0, nl + 1);
    }
  }
  return lines;
}

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(Daemon, ClientThatDoesNotReadStallsOnlyItself) {
  ServedDaemon d("stall");
  Client a = d.connect();
  Client b = d.connect();
  ASSERT_GE(a.fd(), 0);
  ASSERT_GE(b.fd(), 0);
  // A pipelines pings and never reads a reply. The daemon must stop
  // taking its requests once the replies back up, so A's writes stall.
  ASSERT_EQ(::fcntl(a.fd(), F_SETFL, O_NONBLOCK), 0);
  std::string pings;
  for (int i = 0; i < 1024; ++i) pings += "{\"op\":\"ping\"}\n";
  constexpr std::size_t kStallBefore = std::size_t{8} << 20;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t written = 0;
  bool stalled = false;
  while (written < kStallBefore && std::chrono::steady_clock::now() < give_up) {
    const std::size_t at = written % pings.size();
    const ssize_t n =
        ::send(a.fd(), pings.data() + at, pings.size() - at, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << std::strerror(errno);
    pollfd p{a.fd(), POLLOUT, 0};
    if (::poll(&p, 1, 500) == 0) {  // no room for 500 ms
      stalled = true;
      break;
    }
  }
  EXPECT_TRUE(stalled) << "A wrote " << written << " bytes without stalling";
  EXPECT_LT(written, kStallBefore);
  // B is still answered.
  ASSERT_TRUE(send_all(b.fd(), "{\"op\":\"ping\"}\n"));
  const auto replies = read_lines(b.fd(), 1, std::chrono::seconds(2));
  EXPECT_EQ(replies.size(), 1u) << "a client that reads no replies blocked another";
  for (const std::string& r : replies) EXPECT_TRUE(contains(r, "\"ok\":true")) << r;
  // Closing A lets a daemon that blocked on it go on, so a failure above
  // is an assertion, not a hang.
  a.close();
  EXPECT_TRUE(d.stop_within(std::chrono::seconds(2)));
}

TEST(Daemon, AnswersRequestsOfOneWriteInOrder) {
  ServedDaemon d("order");
  Client c = d.connect();
  ASSERT_GE(c.fd(), 0);
  ASSERT_TRUE(send_all(c.fd(),
                       "{\"op\":\"connect\",\"tenant\":\"acme\"}\n"
                       "{\"op\":\"warp\"}\n"
                       "{\"op\":\"submit\",\"session\":1,\"files\":[1024]}\n"
                       "{\"op\":\"stats\",\"tenant\":\"acme\"}\n"));
  const auto replies = read_lines(c.fd(), 4, std::chrono::seconds(2));
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_TRUE(contains(replies[0], "\"session\":1")) << replies[0];
  EXPECT_TRUE(contains(replies[1], "\"ok\":false")) << replies[1];
  EXPECT_TRUE(contains(replies[2], "\"ticket\":1")) << replies[2];
  EXPECT_TRUE(contains(replies[3], "\"submitted\":1")) << replies[3];
  c.close();
  EXPECT_TRUE(d.stop_within(std::chrono::seconds(2)));
}

TEST(Daemon, RequestSplitAcrossWritesGetsOneReply) {
  ServedDaemon d("split");
  Client c = d.connect();
  ASSERT_GE(c.fd(), 0);
  ASSERT_TRUE(send_all(c.fd(), "{\"op\":\"pi"));
  // Long enough for the daemon to read the fragment on its own.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(send_all(c.fd(), "ng\"}\n{\"op\":\"stats\",\"tenant\":\"acme\"}\n"));
  // A reply to the fragment alone would arrive first, as an error.
  const auto replies = read_lines(c.fd(), 2, std::chrono::seconds(2));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(contains(replies[0], "\"time\":")) << replies[0];
  EXPECT_TRUE(contains(replies[1], "\"submitted\":0")) << replies[1];
  c.close();
  EXPECT_TRUE(d.stop_within(std::chrono::seconds(2)));
}

TEST(Daemon, ClosedConnectionDisconnectsItsSessions) {
  ServedDaemon d("eof");
  Client owner = d.connect();
  ASSERT_GE(owner.fd(), 0);
  ASSERT_TRUE(send_all(owner.fd(),
                       "{\"op\":\"connect\",\"tenant\":\"acme\"}\n"
                       "{\"op\":\"submit\",\"session\":1,\"files\":[1048576]}\n"));
  ASSERT_EQ(read_lines(owner.fd(), 2, std::chrono::seconds(2)).size(), 2u);
  owner.close();  // without a disconnect request
  // Another connection sees session 1 closed once the daemon has read
  // the EOF.
  Client other = d.connect();
  ASSERT_GE(other.fd(), 0);
  std::string reply;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!contains(reply, "is closed") && std::chrono::steady_clock::now() < give_up) {
    ASSERT_TRUE(send_all(other.fd(), "{\"op\":\"poll\",\"session\":1,\"ticket\":1}\n"));
    const auto replies = read_lines(other.fd(), 1, std::chrono::seconds(2));
    ASSERT_EQ(replies.size(), 1u);
    reply = replies[0];
  }
  EXPECT_TRUE(contains(reply, "is closed")) << reply;
  other.close();
  ASSERT_TRUE(d.stop_within(std::chrono::seconds(2)));
  EXPECT_EQ(d.f.front->sessions_open(), 0u);
  EXPECT_TRUE(d.f.front->quiescent());
}

TEST(Daemon, PartialLastLineAtEofGetsNoReply) {
  ServedDaemon d("partial");
  Client c = d.connect();
  ASSERT_GE(c.fd(), 0);
  ASSERT_TRUE(send_all(c.fd(), "{\"op\":\"ping\"}\n{\"op\":\"ping\"}"));
  // EOF to the daemon; its replies stay readable.
  ASSERT_EQ(::shutdown(c.fd(), SHUT_WR), 0);
  // The complete line is answered, then the daemon closes: read_lines
  // stops at that EOF with one line.
  const auto replies = read_lines(c.fd(), 2, std::chrono::seconds(2));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(contains(replies[0], "\"time\":")) << replies[0];
  c.close();
  EXPECT_TRUE(d.stop_within(std::chrono::seconds(2)));
}

TEST(Daemon, OverlongRequestLineIsRefusedAndOthersServed) {
  ServedDaemon d("overlong");
  Client a = d.connect();
  Client b = d.connect();
  ASSERT_GE(a.fd(), 0);
  ASSERT_GE(b.fd(), 0);
  ASSERT_TRUE(send_all(a.fd(), "{\"op\":\"connect\",\"tenant\":\"acme\"}\n"));
  ASSERT_EQ(read_lines(a.fd(), 1, std::chrono::seconds(2)).size(), 1u);
  // One byte past the bound, and no '\n'.
  ASSERT_TRUE(send_all(a.fd(), std::string(Daemon::kMaxRequestLine + 1, 'x')));
  // One error reply, then the daemon closes: read_lines stops at EOF.
  const auto replies = read_lines(a.fd(), 2, std::chrono::seconds(2));
  ASSERT_EQ(replies.size(), 1u) << "an unfinished line grew without bound";
  EXPECT_TRUE(contains(replies[0], "request line longer than")) << replies[0];
  // B is served, and sees A's session disconnected.
  ASSERT_TRUE(send_all(b.fd(), "{\"op\":\"poll\",\"session\":1,\"ticket\":1}\n"));
  const auto other = read_lines(b.fd(), 1, std::chrono::seconds(2));
  ASSERT_EQ(other.size(), 1u);
  EXPECT_TRUE(contains(other[0], "is closed")) << other[0];
  a.close();
  b.close();
  EXPECT_TRUE(d.stop_within(std::chrono::seconds(2)));
}

TEST(Daemon, FarNextEventDoesNotSpin) {
  ServedDaemon d("far");
  Client c = d.connect();
  ASSERT_GE(c.fd(), 0);
  // A 2^53-byte file keeps a transfer in flight for ~100 sim days, so the
  // next event is more milliseconds away than an int holds.
  ASSERT_TRUE(send_all(c.fd(),
                       "{\"op\":\"connect\",\"tenant\":\"acme\"}\n"
                       "{\"op\":\"submit\",\"session\":1,\"files\":[9007199254740992]}\n"));
  ASSERT_EQ(read_lines(c.fd(), 2, std::chrono::seconds(2)).size(), 2u);
  // The idle daemon waits in poll(); one that spins burns the window.
  const std::clock_t cpu0 = std::clock();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_s = static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
  EXPECT_LT(cpu_s, 0.1);
  c.close();
  EXPECT_TRUE(d.stop_within(std::chrono::seconds(2)));
}

TEST(WallClock, TestClockJumpsForwardOnly) {
  TestWallClock clock;
  EXPECT_TRUE(clock.is_virtual());
  EXPECT_EQ(clock.now(), 0.0);
  clock.advance_to(5.0);
  EXPECT_EQ(clock.now(), 5.0);
  clock.advance_to(3.0);  // never backward
  EXPECT_EQ(clock.now(), 5.0);
}

TEST(WallClock, SteadyClockAdvances) {
  SteadyWallClock clock;
  EXPECT_FALSE(clock.is_virtual());
  const Seconds a = clock.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Seconds b = clock.now();
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace gridvc::frontend
