// Wall-clock daemon: the admission front-end as a long-running process.
//
// Everything below the front-end is a discrete-event simulation; the
// daemon glues it to real clients. One thread does all of it:
// Daemon::run() is a poll() loop, on the caller's thread, over a
// non-blocking unix-domain listen socket and every accepted connection.
// Each round it
//
//   - accepts every pending connection;
//   - reads once (up to 64 KiB) from each readable connection, so no
//     client starves another;
//   - answers each complete line: advances the simulator to the
//     wall-clock-mapped sim time, runs the wire protocol, and appends
//     the reply to that connection's output buffer;
//   - makes one non-blocking send per connection with output pending.
//
// Replies on one connection keep request order. Backpressure: while a
// connection holds more than kMaxPendingOutput unsent reply bytes the
// loop stops reading it, so a client that does not read its replies
// stalls only on its own socket; the others, and SIGTERM, are still
// served, and the replies a connection holds stay bounded.
//
// Time mapping: sim_time = clock.now() * time_scale. With a
// SteadyWallClock the loop sleeps in poll() until the next sim event is
// due or a request arrives; with a TestWallClock it jumps the clock to
// the next deadline instead, replaying hours of sim time in milliseconds
// through the very same loop (the CI smoke runs this way).
//
// A connection's EOF disconnects the sessions it opened; its complete
// lines are answered first and a partial last line is dropped. A line
// that grows past kMaxRequestLine without its '\n' gets one error reply,
// and then the connection is treated as at EOF.
//
// Shutdown: SIGTERM (or request_shutdown()) closes the listen socket,
// answers lines until 10 ms pass with none, disarms the idle reaper,
// runs the simulator until the front-end is quiescent (no queued
// tickets, no in-flight work), flushes what it can without blocking,
// closes the connections, and returns. Clean drain is asserted by
// tests/cli_daemon_smoke.cmake.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "frontend/wall_clock.hpp"
#include "frontend/wire.hpp"

namespace gridvc::frontend {

struct DaemonConfig {
  /// Unix-domain socket path. A leading '@' selects the Linux abstract
  /// namespace (no filesystem entry, no unlink bookkeeping).
  std::string socket_path;
  /// Sim seconds per wall second (real clocks only; a virtual clock
  /// already moves in sim-deadline jumps).
  double time_scale = 1.0;
  /// Server-side transfer template (endpoints are configuration, not
  /// client input).
  gridftp::TransferSpec transfer_template;
};

class Daemon {
 public:
  /// Unsent reply bytes above which a connection is not read until its
  /// client takes some of them.
  static constexpr std::size_t kMaxPendingOutput = std::size_t{1} << 20;
  /// Bytes of one unfinished request line above which the connection is
  /// answered an error, its sessions are disconnected, and it is closed
  /// once that reply is sent. About three times the longest submit of
  /// perfbench's daemon-wire load (30,500 files of up to 1 GiB, 336 KB).
  static constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

  /// The simulator, front-end, and clock must outlive the daemon.
  Daemon(sim::Simulator& sim, FrontEnd& front, WallClock& clock,
         DaemonConfig config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind, listen, serve. Blocks until shutdown is requested and the
  /// front-end has drained. Returns the number of requests handled.
  std::uint64_t run();

  /// Ask run() to wind down (thread-safe; also set by the SIGTERM
  /// handler installed via install_sigterm_handler).
  void request_shutdown() { shutdown_.store(true); }
  bool shutdown_requested() const;

  /// Route SIGTERM/SIGINT into the shutdown flag via sigaction (the
  /// handler only sets a process-wide sig_atomic_t that every Daemon's
  /// shutdown_requested() observes).
  static void install_sigterm_handler();

 private:
  struct Connection {
    int fd = -1;
    std::string in;    ///< bytes read after the last complete line
    std::string out;   ///< replies not yet sent
    /// No more input: the client closed its side, or sent a line longer
    /// than kMaxRequestLine. Closed once `out` is sent.
    bool closing = false;
    /// Sessions opened here, so EOF disconnects them.
    std::vector<std::uint64_t> sessions;
  };

  /// One poll() round, waiting at most `timeout_ms`. True if it accepted
  /// a connection or read from one.
  bool serve_round(int timeout_ms);
  void read_requests(Connection& c);
  void answer(Connection& c, const std::string& line);
  void flush(Connection& c);
  /// Read nothing more from `c`: drop its partial line and disconnect
  /// its sessions; it closes once its replies are sent.
  void stop_reading(Connection& c);

  sim::Simulator& sim_;
  FrontEnd& front_;
  WallClock& clock_;
  DaemonConfig config_;
  WireContext wire_;
  std::atomic<bool> shutdown_{false};
  int listen_fd_ = -1;
  std::vector<Connection> connections_;
  std::vector<pollfd> pollfds_;  ///< listen socket, then connections_
  std::vector<char> read_buf_;
  std::string line_;
  std::uint64_t requests_handled_ = 0;
};

}  // namespace gridvc::frontend
