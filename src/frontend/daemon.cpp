#include "frontend/daemon.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "common/error.hpp"

namespace gridvc::frontend {

namespace {

volatile std::sig_atomic_t g_sigterm = 0;

void on_sigterm(int /*signo*/) { g_sigterm = 1; }

/// Bytes one read takes from one connection per round.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Fill a sockaddr_un for `path`; '@' prefix = Linux abstract namespace.
socklen_t make_address(const std::string& path, sockaddr_un& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  GRIDVC_REQUIRE(!path.empty(), "socket path must not be empty");
  GRIDVC_REQUIRE(path.size() < sizeof(addr.sun_path),
                 "socket path too long for sun_path");
  if (path[0] == '@') {
    // Abstract socket: leading NUL byte, name after it, no filesystem
    // entry. The address length must cover exactly the used bytes.
    std::memcpy(addr.sun_path + 1, path.data() + 1, path.size() - 1);
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
  }
  std::memcpy(addr.sun_path, path.data(), path.size());
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size() + 1);
}

}  // namespace

Daemon::Daemon(sim::Simulator& sim, FrontEnd& front, WallClock& clock,
               DaemonConfig config)
    : sim_(sim),
      front_(front),
      clock_(clock),
      config_(std::move(config)),
      wire_{front_, sim_, config_.transfer_template},
      read_buf_(kReadChunk) {
  GRIDVC_REQUIRE(config_.time_scale > 0.0, "time_scale must be positive");
}

Daemon::~Daemon() {
  // run() closes everything on its way out; this covers a run() that threw.
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const Connection& c : connections_) ::close(c.fd);
}

void Daemon::install_sigterm_handler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_sigterm;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

bool Daemon::shutdown_requested() const {
  return shutdown_.load() || g_sigterm != 0;
}

bool Daemon::serve_round(int timeout_ms) {
  // A closed listen socket stays in slot 0 as -1, which poll() skips.
  pollfds_.clear();
  pollfds_.push_back({listen_fd_, POLLIN, 0});
  for (const Connection& c : connections_) {
    short events = 0;
    if (!c.closing && c.out.size() <= kMaxPendingOutput) events |= POLLIN;
    if (!c.out.empty()) events |= POLLOUT;
    pollfds_.push_back({c.fd, events, 0});
  }
  if (::poll(pollfds_.data(), pollfds_.size(), timeout_ms) <= 0) return false;

  bool active = false;
  // Connections accepted below have no pollfd this round.
  const std::size_t polled = connections_.size();
  if (pollfds_[0].revents & POLLIN) {
    int fd;
    while ((fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK)) >= 0) {
      connections_.emplace_back().fd = fd;
      active = true;
    }
  }
  for (std::size_t i = 0; i < polled; ++i) {
    const pollfd& p = pollfds_[i + 1];
    if ((p.events & POLLIN) && (p.revents & (POLLIN | POLLHUP | POLLERR))) {
      read_requests(connections_[i]);
      active = true;
    }
  }
  for (Connection& c : connections_) {
    if (!c.out.empty()) flush(c);
    if (c.closing && c.out.empty()) {
      ::close(c.fd);
      c.fd = -1;
    }
  }
  std::erase_if(connections_, [](const Connection& c) { return c.fd < 0; });
  return active;
}

void Daemon::read_requests(Connection& c) {
  const ssize_t n = ::read(c.fd, read_buf_.data(), read_buf_.size());
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
  if (n <= 0) {
    // EOF (or a reset): every complete line was answered as it arrived;
    // a partial last line is dropped.
    stop_reading(c);
    return;
  }
  // `in` holds no '\n' before this read, so the scan starts at the new bytes.
  std::size_t start = 0;
  std::size_t nl = c.in.size();
  c.in.append(read_buf_.data(), static_cast<std::size_t>(n));
  while ((nl = c.in.find('\n', nl)) != std::string::npos) {
    line_.assign(c.in, start, nl - start);
    answer(c, line_);
    start = ++nl;
  }
  c.in.erase(0, start);
  if (c.in.size() > kMaxRequestLine) {
    c.out += "{\"ok\":false,\"error\":\"request line longer than " +
             std::to_string(kMaxRequestLine) + " bytes\"}\n";
    stop_reading(c);
  }
}

void Daemon::answer(Connection& c, const std::string& line) {
  // Pin sim time to the wall: nothing in the simulator may run ahead
  // of what the clock says has elapsed.
  sim_.run_until(clock_.now() * config_.time_scale);
  ++requests_handled_;
  const WireResult r = handle_wire_line(wire_, line);
  if (r.opened_session) c.sessions.push_back(*r.opened_session);
  if (r.closed_session) std::erase(c.sessions, *r.closed_session);
  c.out += r.response;
  c.out += '\n';
}

void Daemon::flush(Connection& c) {
  // MSG_NOSIGNAL keeps SIGPIPE out of a write to a vanished client.
  const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
  if (n >= 0) {
    c.out.erase(0, static_cast<std::size_t>(n));
  } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    // The client is gone and its replies have no reader. What it sent
    // before closing is still read and answered until its EOF.
    c.out.clear();
  }
}

void Daemon::stop_reading(Connection& c) {
  c.closing = true;
  c.in.clear();
  for (const std::uint64_t session : c.sessions) {
    front_.disconnect(session);  // idempotent on already-closed sessions
  }
  c.sessions.clear();
}

std::uint64_t Daemon::run() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  GRIDVC_REQUIRE(listen_fd_ >= 0, "socket() failed");
  sockaddr_un addr;
  const socklen_t len = make_address(config_.socket_path, addr);
  if (config_.socket_path[0] != '@') ::unlink(config_.socket_path.c_str());
  GRIDVC_REQUIRE(
      ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), len) == 0,
      "bind('" + config_.socket_path + "') failed: " + std::strerror(errno));
  GRIDVC_REQUIRE(::listen(listen_fd_, 16) == 0, "listen() failed");

  const double scale = config_.time_scale;
  while (!shutdown_requested()) {
    sim_.run_until(clock_.now() * scale);
    if (clock_.is_virtual()) {
      // Virtual time: requests first, then jump to the next deadline;
      // idle only when both the sockets and the event queue are.
      if (serve_round(0)) continue;
      if (const auto next = sim_.next_event_time()) {
        clock_.advance_to(*next / scale);
      } else {
        serve_round(20);
      }
      continue;
    }
    // Real time: sleep in poll() until the next sim event is due (or a
    // short heartbeat so shutdown is noticed promptly). The wait is
    // clamped before the cast, which a far deadline would overflow.
    int timeout_ms = 100;
    if (const auto next = sim_.next_event_time()) {
      const double wait_ms = (*next / scale - clock_.now()) * 1000.0;
      timeout_ms =
          std::clamp(static_cast<int>(std::clamp(wait_ms, -1.0, 100.0)) + 1, 0, 100);
    }
    serve_round(timeout_ms);
  }

  // Teardown, in drain order: stop new connections, answer requests
  // until 10 ms pass with none, fast-forward the simulator until the
  // front-end holds no unfinished work, then tear the transport down.
  ::close(listen_fd_);
  listen_fd_ = -1;
  using Steady = std::chrono::steady_clock;
  for (auto quiet = Steady::now(); Steady::now() - quiet < std::chrono::milliseconds(10);) {
    if (serve_round(10)) quiet = Steady::now();
  }
  front_.stop_reaper();
  while (!front_.quiescent()) {
    const auto next = sim_.next_event_time();
    if (!next) break;  // defensive: unfinished work must have events
    sim_.run_until(*next);
  }
  for (Connection& c : connections_) {
    if (!c.out.empty()) flush(c);
    stop_reading(c);
    ::close(c.fd);
  }
  connections_.clear();
  if (config_.socket_path[0] != '@') ::unlink(config_.socket_path.c_str());
  return requests_handled_;
}

}  // namespace gridvc::frontend
