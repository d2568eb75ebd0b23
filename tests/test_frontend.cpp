#include "frontend/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "recovery/circuit_breaker.hpp"
#include "recovery/journal.hpp"

namespace gridvc::frontend {
namespace {

using gridftp::IoMode;
using gridftp::Server;
using gridftp::ServerConfig;
using gridftp::TaskState;
using gridftp::TransferEngine;
using gridftp::TransferEngineConfig;
using gridftp::TransferService;
using gridftp::TransferServiceConfig;
using gridftp::TransferSpec;
using gridftp::UsageStatsCollector;

struct Fixture {
  sim::Simulator sim;
  net::Topology topo;
  net::LinkId ab;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Server> src, dst;
  UsageStatsCollector collector;
  std::unique_ptr<TransferEngine> engine;
  std::unique_ptr<TransferService> service;
  std::unique_ptr<FrontEnd> front;

  explicit Fixture(FrontEndConfig fcfg = two_tenants(), int max_active = 1,
                   recovery::Journal* journal = nullptr) {
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
    ecfg.tcp.stream_buffer = 64 * MiB;
    engine = std::make_unique<TransferEngine>(*network, collector, ecfg, Rng(3));
    TransferServiceConfig scfg;
    scfg.max_active_tasks = max_active;
    scfg.journal = journal;
    service = std::make_unique<TransferService>(sim, *engine, scfg);
    front = std::make_unique<FrontEnd>(sim, *service, std::move(fcfg));
  }

  /// Tenants "alpha" (weight 1) and "beta" (weight 2), no quotas.
  static FrontEndConfig two_tenants() {
    FrontEndConfig cfg;
    TenantConfig a;
    a.name = "alpha";
    a.weight = 1.0;
    TenantConfig b;
    b.name = "beta";
    b.weight = 2.0;
    cfg.tenants = {a, b};
    cfg.drr_quantum = 64 * MiB;
    return cfg;
  }

  TransferSpec tmpl() {
    TransferSpec s;
    s.src = {src.get(), IoMode::kMemory};
    s.dst = {dst.get(), IoMode::kMemory};
    s.path = {ab};
    s.rtt = 0.01;
    s.streams = 8;
    s.remote_host = "b";
    return s;
  }

  /// Park a long-running task directly in the backend so every
  /// front-end ticket stays queued (the dispatcher sees no free slot).
  std::uint64_t occupy_backend() {
    return service->submit("filler", {10 * GiB}, tmpl());
  }
};

TEST(FrontEnd, SubmitDispatchCompleteRoundTrip) {
  Fixture f;
  const auto session = f.front->connect("alpha");
  const SubmitResult r =
      f.front->submit(session, "job", {64 * MiB}, f.tmpl());
  ASSERT_TRUE(r.accepted);
  EXPECT_FALSE(r.duplicate);
  f.sim.run();
  const TicketStatus st = f.front->poll(session, r.ticket);
  EXPECT_EQ(st.state, TicketState::kDone);
  EXPECT_EQ(st.task_state, TaskState::kSucceeded);
  EXPECT_EQ(st.bytes_done, 64 * MiB);
  EXPECT_TRUE(f.front->quiescent());
  const TenantStats ts = f.front->tenant_stats("alpha");
  EXPECT_EQ(ts.accepted, 1u);
  EXPECT_EQ(ts.dispatched, 1u);
  EXPECT_EQ(ts.completed, 1u);
  // Per-tenant counters are also first-class metrics.
  const auto snap = f.sim.obs().registry().snapshot();
  EXPECT_EQ(snap.value("gridvc_front_tenant_alpha_completed"), 1.0);
}

TEST(FrontEnd, ConnectUnknownTenantThrows) {
  Fixture f;
  EXPECT_THROW(f.front->connect("nobody"), NotFoundError);
}

TEST(FrontEnd, CancelQueuedTicketNeverDispatches) {
  Fixture f;
  f.occupy_backend();
  const auto session = f.front->connect("alpha");
  const SubmitResult r = f.front->submit(session, "doomed", {MiB}, f.tmpl());
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(f.front->poll(session, r.ticket).state, TicketState::kQueued);
  EXPECT_TRUE(f.front->cancel(session, r.ticket));
  EXPECT_EQ(f.front->poll(session, r.ticket).state, TicketState::kCancelled);
  f.sim.run();
  // Still cancelled, never reached the backend, and cancel is sticky.
  EXPECT_EQ(f.front->poll(session, r.ticket).state, TicketState::kCancelled);
  EXPECT_EQ(f.front->tenant_stats("alpha").dispatched, 0u);
  EXPECT_FALSE(f.front->cancel(session, r.ticket));
}

TEST(FrontEnd, DoubleSubmitWithIdempotencyKeyIsDeduped) {
  Fixture f;
  const auto session = f.front->connect("alpha");
  const SubmitResult first =
      f.front->submit(session, "job", {MiB}, f.tmpl(), {}, "retry-1");
  ASSERT_TRUE(first.accepted);
  const SubmitResult second =
      f.front->submit(session, "job", {MiB}, f.tmpl(), {}, "retry-1");
  EXPECT_TRUE(second.accepted);
  EXPECT_TRUE(second.duplicate);
  EXPECT_EQ(second.ticket, first.ticket);
  // The duplicate was charged nothing: one submission, one accept.
  EXPECT_EQ(f.front->tenant_stats("alpha").submitted, 1u);
  EXPECT_EQ(f.front->tenant_stats("alpha").accepted, 1u);
  f.sim.run();
  EXPECT_TRUE(f.front->quiescent());
}

TEST(FrontEnd, DisconnectWithInFlightAdoptsOrphans) {
  Fixture f;
  const auto session = f.front->connect("alpha");
  const SubmitResult r = f.front->submit(session, "orphan", {64 * MiB}, f.tmpl());
  ASSERT_TRUE(r.accepted);
  EXPECT_EQ(f.front->status(r.ticket).state, TicketState::kDispatched);
  f.front->disconnect(session);
  EXPECT_THROW(f.front->poll(session, r.ticket), NotFoundError);
  f.sim.run();
  // The orphan ran to completion under the tenant's account.
  EXPECT_EQ(f.front->status(r.ticket).state, TicketState::kDone);
  EXPECT_EQ(f.front->status(r.ticket).task_state, TaskState::kSucceeded);
  EXPECT_EQ(f.front->tenant_stats("alpha").completed, 1u);
  EXPECT_TRUE(f.front->quiescent());
}

TEST(FrontEnd, DisconnectWithAbortCancelsInFlightAndShedsQueued) {
  FrontEndConfig cfg = Fixture::two_tenants();
  cfg.abort_on_disconnect = true;
  Fixture f(std::move(cfg));
  const auto session = f.front->connect("alpha");
  const SubmitResult active =
      f.front->submit(session, "active", {64 * MiB}, f.tmpl());
  const SubmitResult queued =
      f.front->submit(session, "queued", {64 * MiB}, f.tmpl());
  ASSERT_TRUE(active.accepted);
  ASSERT_TRUE(queued.accepted);
  EXPECT_EQ(f.front->status(active.ticket).state, TicketState::kDispatched);
  EXPECT_EQ(f.front->status(queued.ticket).state, TicketState::kQueued);
  f.front->disconnect(session);
  EXPECT_EQ(f.front->status(queued.ticket).state, TicketState::kShed);
  f.sim.run();
  EXPECT_EQ(f.front->status(active.ticket).task_state, TaskState::kCancelled);
  EXPECT_TRUE(f.front->quiescent());
  EXPECT_EQ(f.front->tenant_stats("alpha").shed, 1u);
}

TEST(FrontEnd, IdleReapRacesAPoll) {
  FrontEndConfig cfg = Fixture::two_tenants();
  cfg.session_idle_timeout = 10.0;
  cfg.reap_interval = 5.0;
  Fixture f(std::move(cfg));
  const auto session = f.front->connect("alpha");
  bool polled_alive = false;
  bool reaped_poll_threw = false;
  // A poll at t=4 refreshes the activity clock, pushing the reap from
  // t=10 out to t=15 (the first sweep at/after activity+timeout).
  f.sim.schedule_at(4.0, [&] {
    (void)f.front->submit(session, "keepalive", {MiB}, f.tmpl());
    polled_alive = true;
  });
  f.sim.schedule_at(16.0, [&] {
    try {
      (void)f.front->poll(session, 1);
    } catch (const NotFoundError&) {
      reaped_poll_threw = true;
    }
  });
  f.sim.run();
  EXPECT_TRUE(polled_alive);
  EXPECT_TRUE(reaped_poll_threw);
  EXPECT_EQ(f.front->sessions_reaped(), 1u);
  EXPECT_EQ(f.front->sessions_open(), 0u);
  // The reaper disarmed itself (sim.run() returned), and re-arms on the
  // next connect.
  EXPECT_TRUE(f.sim.idle());
  (void)f.front->connect("beta");
  EXPECT_FALSE(f.sim.idle());
  f.front->stop_reaper();
}

TEST(FrontEnd, TokenBucketRateLimitsAndRecovers) {
  FrontEndConfig cfg = Fixture::two_tenants();
  cfg.tenants[0].submit_rate = 1.0;  // 1/s, burst 1
  cfg.tenants[0].submit_burst = 1.0;
  Fixture f(std::move(cfg));
  const auto session = f.front->connect("alpha");
  ASSERT_TRUE(f.front->submit(session, "a", {MiB}, f.tmpl()).accepted);
  const SubmitResult limited = f.front->submit(session, "b", {MiB}, f.tmpl());
  ASSERT_FALSE(limited.accepted);
  EXPECT_EQ(limited.reason, RejectReason::kRateLimited);
  EXPECT_NEAR(limited.retry_after, 1.0, 1e-9);
  f.sim.run_until(limited.retry_after);
  EXPECT_TRUE(f.front->submit(session, "b", {MiB}, f.tmpl()).accepted);
  EXPECT_EQ(f.front->tenant_stats("alpha").rejected, 1u);
  f.sim.run();
}

TEST(FrontEnd, QueuedBytesQuotaRejects) {
  FrontEndConfig cfg = Fixture::two_tenants();
  cfg.tenants[0].max_queued_bytes = 2 * MiB;
  Fixture f(std::move(cfg));
  f.occupy_backend();
  const auto session = f.front->connect("alpha");
  ASSERT_TRUE(f.front->submit(session, "a", {2 * MiB}, f.tmpl()).accepted);
  const SubmitResult over = f.front->submit(session, "b", {MiB}, f.tmpl());
  ASSERT_FALSE(over.accepted);
  EXPECT_EQ(over.reason, RejectReason::kQuotaBytes);
  EXPECT_GT(over.retry_after, 0.0);
}

TEST(FrontEnd, PerTenantPriorityEvictionIsFifoWithinLevel) {
  FrontEndConfig cfg = Fixture::two_tenants();
  cfg.tenants[0].queue_limit = 2;
  cfg.tenants[0].policy = OverloadPolicy::kPriority;
  Fixture f(std::move(cfg));
  f.occupy_backend();
  const auto session = f.front->connect("alpha");
  TicketOptions pri0;
  pri0.priority = 0;
  const auto t1 = f.front->submit(session, "t1", {MiB}, f.tmpl(), pri0);
  const auto t2 = f.front->submit(session, "t2", {MiB}, f.tmpl(), pri0);
  ASSERT_TRUE(t1.accepted);
  ASSERT_TRUE(t2.accepted);
  // A tie never evicts: earlier arrivals win.
  const auto tie = f.front->submit(session, "tie", {MiB}, f.tmpl(), pri0);
  ASSERT_FALSE(tie.accepted);
  EXPECT_EQ(tie.reason, RejectReason::kQueueFull);
  // A strictly higher priority evicts the *oldest* lowest-priority
  // ticket — t1, not t2.
  TicketOptions pri1;
  pri1.priority = 1;
  const auto winner = f.front->submit(session, "win", {MiB}, f.tmpl(), pri1);
  ASSERT_TRUE(winner.accepted);
  EXPECT_EQ(f.front->status(t1.ticket).state, TicketState::kShed);
  EXPECT_EQ(f.front->status(t2.ticket).state, TicketState::kQueued);
}

TEST(FrontEnd, DrrDispatchesBytesByWeight) {
  Fixture f;  // alpha weight 1, beta weight 2, one backend slot
  obs::RingBufferTraceSink sink(8192);
  f.sim.obs().set_trace_sink(&sink);
  const auto sa = f.front->connect("alpha");
  const auto sb = f.front->connect("beta");
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(
        f.front->submit(sa, "a" + std::to_string(i), {64 * MiB}, f.tmpl())
            .accepted);
    ASSERT_TRUE(
        f.front->submit(sb, "b" + std::to_string(i), {64 * MiB}, f.tmpl())
            .accepted);
  }
  f.sim.run();
  // Replay dispatch order from the trace: within the first 9 dispatches
  // beta (weight 2) must get twice alpha's slots.
  std::vector<std::uint64_t> order;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.type == obs::TraceEventType::kFrontDispatch) {
      order.push_back(static_cast<std::uint64_t>(e.value2));  // tenant idx
    }
  }
  ASSERT_EQ(order.size(), 18u);
  int alpha_first9 = 0;
  for (int i = 0; i < 9; ++i) alpha_first9 += order[static_cast<std::size_t>(i)] == 0;
  EXPECT_EQ(alpha_first9, 3);  // 1:2 split
  EXPECT_EQ(f.front->starvation_violations(), 0u);
  EXPECT_EQ(f.front->isolation_violations(), 0u);
  EXPECT_TRUE(f.front->quiescent());
  f.sim.obs().set_trace_sink(nullptr);
}

TEST(FrontEnd, GlobalBackpressureShedsOverShareTenantFirst) {
  FrontEndConfig cfg = Fixture::two_tenants();
  cfg.tenants[0].weight = 1.0;
  cfg.tenants[1].weight = 1.0;
  cfg.global_queued_bytes_limit = 10 * MiB;  // fair share: 5 MiB each
  Fixture f(std::move(cfg));
  f.occupy_backend();
  const auto sa = f.front->connect("alpha");
  const auto sb = f.front->connect("beta");
  // beta hoards 8 MiB of queue — over its 5 MiB share.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(f.front->submit(sb, "hog", {MiB}, f.tmpl()).accepted);
  }
  // alpha's in-quota 4 MiB submission reclaims from beta instead of
  // being refused.
  const SubmitResult r = f.front->submit(sa, "fair", {4 * MiB}, f.tmpl());
  ASSERT_TRUE(r.accepted);
  EXPECT_GE(f.front->tenant_stats("beta").shed, 2u);
  EXPECT_LE(f.front->queued_bytes(), 10 * MiB);
  EXPECT_EQ(f.front->isolation_violations(), 0u);
  // With beta now at its share, alpha pushing *itself* over share is
  // refused with a retry-after hint rather than shedding beta further.
  const SubmitResult over = f.front->submit(sa, "greedy", {7 * MiB}, f.tmpl());
  ASSERT_FALSE(over.accepted);
  EXPECT_EQ(over.reason, RejectReason::kBackpressure);
  EXPECT_GT(over.retry_after, 0.0);
}

TEST(FrontEnd, BreakerOpenRejectsWithReopenHint) {
  recovery::CircuitBreaker breaker;
  FrontEndConfig cfg = Fixture::two_tenants();
  cfg.breaker = &breaker;
  Fixture f(std::move(cfg));
  const auto session = f.front->connect("alpha");
  for (int i = 0; i < 3; ++i) breaker.record_failure(0.0);
  const SubmitResult r = f.front->submit(session, "sick", {MiB}, f.tmpl());
  ASSERT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, RejectReason::kBreakerOpen);
  EXPECT_NEAR(r.retry_after, breaker.reopen_at(), 1e-9);
}

TEST(FrontEnd, InFlightCapThrottlesWithoutStarvationCount) {
  FrontEndConfig cfg = Fixture::two_tenants();
  cfg.tenants[0].max_in_flight = 1;
  Fixture f(std::move(cfg), /*max_active=*/4);
  const auto session = f.front->connect("alpha");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(f.front->submit(session, "x", {32 * MiB}, f.tmpl()).accepted);
  }
  // Only one dispatched despite four free backend slots.
  EXPECT_EQ(f.front->in_flight(), 1u);
  EXPECT_EQ(f.front->queued_tickets(), 3u);
  f.sim.run();
  EXPECT_TRUE(f.front->quiescent());
  EXPECT_EQ(f.front->tenant_stats("alpha").completed, 4u);
  EXPECT_EQ(f.front->starvation_violations(), 0u);
}

TEST(FrontEnd, SubmitOnClosedOrUnknownSessionThrows) {
  Fixture f;
  EXPECT_THROW(f.front->submit(99, "x", {MiB}, f.tmpl()), NotFoundError);
  const auto session = f.front->connect("alpha");
  f.front->disconnect(session);
  f.front->disconnect(session);  // idempotent
  EXPECT_THROW(f.front->submit(session, "x", {MiB}, f.tmpl()), NotFoundError);
  EXPECT_THROW(f.front->cancel(session, 1), NotFoundError);
}

TEST(FrontEnd, PollForeignTicketThrows) {
  Fixture f;
  const auto sa = f.front->connect("alpha");
  const auto sb = f.front->connect("beta");
  const SubmitResult r = f.front->submit(sa, "mine", {MiB}, f.tmpl());
  ASSERT_TRUE(r.accepted);
  EXPECT_THROW(f.front->poll(sb, r.ticket), NotFoundError);
  f.sim.run();
}

TEST(FrontEnd, ShedTicketResolvesOnAZeroDelayEvent) {
  FrontEndConfig cfg = Fixture::two_tenants();
  cfg.tenants[0].queue_limit = 1;
  cfg.tenants[0].policy = OverloadPolicy::kShedOldest;
  Fixture f(std::move(cfg));
  const auto session = f.front->connect("alpha");
  std::vector<std::pair<std::uint64_t, TicketState>> resolved;
  const auto on_done = [&](const TicketStatus& st) {
    resolved.emplace_back(st.ticket, st.state);
  };
  // t0 takes the only backend slot, t1 waits, t2 finds the queue full.
  const auto t0 = f.front->submit(session, "t0", {GiB}, f.tmpl(), {}, "", on_done);
  const auto t1 = f.front->submit(session, "t1", {MiB}, f.tmpl(), {}, "", on_done);
  const auto t2 = f.front->submit(session, "t2", {MiB}, f.tmpl(), {}, "", on_done);
  // The newcomer evicted the queue head: a shed, not a rejection.
  ASSERT_TRUE(t0.accepted && t1.accepted && t2.accepted);
  EXPECT_EQ(f.front->status(t1.ticket).state, TicketState::kShed);
  EXPECT_EQ(f.front->status(t2.ticket).state, TicketState::kQueued);
  EXPECT_EQ(f.front->tenant_stats("alpha").shed, 1u);
  EXPECT_EQ(f.front->tenant_stats("alpha").rejected, 0u);
  // The hook never re-enters submit: it fires on a zero-delay event.
  EXPECT_TRUE(resolved.empty());
  f.sim.run_until(f.sim.now());
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0], (std::pair{t1.ticket, TicketState::kShed}));
  f.sim.run();
  // The others resolve once each, as done, in dispatch order.
  ASSERT_EQ(resolved.size(), 3u);
  EXPECT_EQ(resolved[1], (std::pair{t0.ticket, TicketState::kDone}));
  EXPECT_EQ(resolved[2], (std::pair{t2.ticket, TicketState::kDone}));
}

TEST(FrontEnd, ServiceCrashResolvesEveryDispatchedTicketOnce) {
  recovery::Journal journal;
  Fixture f(Fixture::two_tenants(), /*max_active=*/2, &journal);
  const auto sa = f.front->connect("alpha");
  const auto sb = f.front->connect("beta");
  std::map<std::uint64_t, int> resolutions;
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < 3; ++i) {
    for (const auto session : {sa, sb}) {
      const SubmitResult r = f.front->submit(
          session, "job", std::vector<Bytes>(4, 256 * MiB), f.tmpl(), {}, "",
          [&](const TicketStatus& st) {
            ++resolutions[st.ticket];
            EXPECT_EQ(st.state, TicketState::kDone);
            EXPECT_EQ(st.task_state, TaskState::kSucceeded);
          });
      ASSERT_TRUE(r.accepted);
      tickets.push_back(r.ticket);
    }
  }
  // Two tickets are mid-flight in the backend, four wait in the front-end.
  f.sim.run_until(0.2);
  ASSERT_EQ(f.front->in_flight(), 2u);
  ASSERT_EQ(f.front->queued_tickets(), 4u);
  ASSERT_TRUE(resolutions.empty());
  EXPECT_EQ(f.front->crash_and_recover_service(f.tmpl()), 2u);
  EXPECT_GT(f.service->tasks_recovered(), 0u);
  f.sim.run();
  for (const std::uint64_t ticket : tickets) {
    EXPECT_EQ(resolutions[ticket], 1) << "ticket " << ticket;
    EXPECT_EQ(f.front->status(ticket).state, TicketState::kDone);
  }
  EXPECT_EQ(f.front->tenant_stats("alpha").in_flight, 0u);
  EXPECT_EQ(f.front->tenant_stats("beta").in_flight, 0u);
  EXPECT_TRUE(f.front->quiescent());
}

// ---------------------------------------------------------------------------
// Differential: a one-tenant front-end decides like the single bounded
// service queue it replaced.
// ---------------------------------------------------------------------------

/// One overload decision: the operation that made it, whether the
/// arriving submission was refused (else a queued one was evicted), and
/// the losing submission's arrival index.
struct Decision {
  std::size_t step = 0;
  bool refused = false;
  std::size_t submission = 0;
  bool operator==(const Decision&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Decision& d) {
  return os << "{step " << d.step << (d.refused ? " refuse #" : " evict #")
            << d.submission << "}";
}

/// A random interleaving of submissions (priority 0-2) and completions
/// (-1: the oldest running task finishes).
struct Sequence {
  std::size_t queue_limit = 1;
  int slots = 1;
  std::vector<int> ops;
};

Sequence random_sequence(std::uint64_t seed) {
  Rng rng(seed);
  Sequence s;
  s.queue_limit = static_cast<std::size_t>(rng.uniform_int(1, 3));
  s.slots = static_cast<int>(rng.uniform_int(1, 2));
  const auto length = rng.uniform_int(8, 32);
  for (std::int64_t i = 0; i < length; ++i) {
    s.ops.push_back(rng.bernoulli(0.35) ? -1
                                        : static_cast<int>(rng.uniform_int(0, 2)));
  }
  return s;
}

/// Reference model of the service-side queue the front-end replaced: a
/// submission joins the FIFO queue, the head takes any free slot, and a
/// queue left longer than the limit applies the policy. kPriority evicts
/// the lowest (priority, arrival) entry when the arrival strictly
/// outranks it, else refuses the arrival.
std::vector<Decision> reference_decisions(OverloadPolicy policy, const Sequence& s) {
  std::deque<std::pair<int, std::size_t>> queue;  // (priority, arrival)
  int running = 0;
  std::size_t arrivals = 0;
  std::vector<Decision> out;
  for (std::size_t step = 0; step < s.ops.size(); ++step) {
    if (s.ops[step] < 0) {
      if (running > 0) --running;
    } else {
      queue.emplace_back(s.ops[step], arrivals++);
    }
    for (; running < s.slots && !queue.empty(); ++running) queue.pop_front();
    if (queue.size() <= s.queue_limit) continue;
    auto victim = queue.begin();
    bool refused = false;
    switch (policy) {
      case OverloadPolicy::kRejectNew:
        victim = std::prev(queue.end());
        refused = true;
        break;
      case OverloadPolicy::kShedOldest:
        break;
      case OverloadPolicy::kPriority:
        victim = std::min_element(queue.begin(), queue.end());
        if (victim->first >= queue.back().first) {
          victim = std::prev(queue.end());
          refused = true;
        }
        break;
    }
    out.push_back({step, refused, victim->second});
    queue.erase(victim);
  }
  return out;
}

/// Collects front-end sheds in emission order.
class ShedSink final : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& e) override {
    if (e.type == obs::TraceEventType::kFrontShed) sheds.push_back(e.id);
  }
  std::vector<std::uint64_t> sheds;
};

/// Drive a one-tenant front-end (queue limit + policy on its only tenant)
/// over the service through the same sequence. A completion step runs the
/// simulation until one more ticket finishes.
std::vector<Decision> front_end_decisions(OverloadPolicy policy, const Sequence& s) {
  FrontEndConfig cfg;
  TenantConfig solo;
  solo.name = "solo";
  solo.queue_limit = s.queue_limit;
  solo.policy = policy;
  cfg.tenants = {solo};
  Fixture f(cfg, s.slots);
  ShedSink sink;
  f.sim.obs().set_trace_sink(&sink);
  const auto session = f.front->connect("solo");
  std::map<std::uint64_t, std::size_t> arrival_of;  // ticket -> arrival
  std::size_t arrivals = 0;
  std::size_t finished = 0;
  std::vector<Decision> out;
  for (std::size_t step = 0; step < s.ops.size(); ++step) {
    if (s.ops[step] < 0) {
      const std::size_t before = finished;
      while (f.front->in_flight() > 0 && finished == before && f.sim.step()) {
      }
      continue;
    }
    TicketOptions opts;
    opts.priority = s.ops[step];
    const SubmitResult r = f.front->submit(
        session, "op" + std::to_string(step), {64 * MiB}, f.tmpl(), opts, "",
        [&](const TicketStatus& st) { finished += st.state == TicketState::kDone; });
    const std::size_t arrival = arrivals++;
    if (!r.accepted) {
      out.push_back({step, true, arrival});
    } else {
      arrival_of[r.ticket] = arrival;
    }
    for (const std::uint64_t ticket : sink.sheds) {
      out.push_back({step, false, arrival_of.at(ticket)});
    }
    sink.sheds.clear();
  }
  f.sim.obs().set_trace_sink(nullptr);
  return out;
}

void expect_matches_reference(OverloadPolicy policy) {
  std::size_t decisions = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Sequence s = random_sequence(seed * 7919 + static_cast<std::uint64_t>(policy));
    const auto expected = reference_decisions(policy, s);
    ASSERT_EQ(front_end_decisions(policy, s), expected) << "seed " << seed;
    decisions += expected.size();
  }
  EXPECT_GT(decisions, 200u);  // the sequences actually overflow the queue
}

TEST(FrontEndDifferential, RejectNewMatchesServiceQueueModel) {
  expect_matches_reference(OverloadPolicy::kRejectNew);
}

TEST(FrontEndDifferential, ShedOldestMatchesServiceQueueModel) {
  expect_matches_reference(OverloadPolicy::kShedOldest);
}

TEST(FrontEndDifferential, PriorityMatchesServiceQueueModel) {
  expect_matches_reference(OverloadPolicy::kPriority);
}

}  // namespace
}  // namespace gridvc::frontend
