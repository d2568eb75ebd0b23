#include "frontend/admission.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace gridvc::frontend {

namespace {

constexpr std::uint64_t kCloseDisconnect = 0;
constexpr std::uint64_t kCloseIdleReap = 1;

}  // namespace

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kRateLimited: return "rate_limited";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kQuotaBytes: return "quota_bytes";
    case RejectReason::kBackpressure: return "backpressure";
    case RejectReason::kBreakerOpen: return "breaker_open";
  }
  return "unknown";
}

FrontEnd::FrontEnd(sim::Simulator& sim, gridftp::TransferService& service,
                   FrontEndConfig config)
    : sim_(sim), service_(service), config_(std::move(config)) {
  GRIDVC_REQUIRE(!config_.tenants.empty(),
                 "front-end needs at least one tenant");
  GRIDVC_REQUIRE(config_.drr_quantum > 0, "drr_quantum must be positive");
  GRIDVC_REQUIRE(config_.session_idle_timeout <= 0.0 || config_.reap_interval > 0.0,
                 "reap_interval must be positive when idle reaping is on");
  auto& reg = sim_.obs().registry();
  for (const TenantConfig& tc : config_.tenants) {
    GRIDVC_REQUIRE(!tc.name.empty() && tc.name.find(' ') == std::string::npos,
                   "tenant name must be non-empty and space-free");
    GRIDVC_REQUIRE(tc.weight > 0.0, "tenant weight must be positive");
    GRIDVC_REQUIRE(tenant_index_.count(tc.name) == 0,
                   "duplicate tenant '" + tc.name + "'");
    tenant_index_.emplace(tc.name, static_cast<std::uint32_t>(tenants_.size()));
    TenantRt t;
    t.cfg = tc;
    t.bucket.tokens = std::max(1.0, tc.submit_burst);
    const std::string p = "gridvc_front_tenant_" + tc.name + "_";
    t.id_submitted = reg.counter(p + "submitted", "submissions attempted");
    t.id_accepted = reg.counter(p + "accepted", "submissions accepted");
    t.id_rejected = reg.counter(p + "rejected", "submissions refused");
    t.id_shed = reg.counter(p + "shed", "queued tickets shed");
    t.id_dispatched = reg.counter(p + "dispatched", "tickets handed to backend");
    t.id_completed = reg.counter(p + "completed", "tickets backend-terminal");
    t.id_queued_gauge = reg.gauge(p + "queued", "front-queue depth");
    t.id_queued_bytes_gauge = reg.gauge(p + "queued_bytes", "front-queue bytes");
    t.id_in_flight_gauge = reg.gauge(p + "in_flight", "dispatched, unfinished");
    t.id_queue_wait_hist =
        reg.log_histogram(p + "queue_wait_seconds", "front-queue wait at dispatch");
    tenants_.push_back(std::move(t));
  }
  id_sessions_open_gauge_ = reg.gauge("gridvc_front_sessions_open", "open sessions");
  id_sessions_reaped_ = reg.counter("gridvc_front_sessions_reaped",
                                    "sessions closed by the idle sweep");
  id_rejections_ = reg.counter("gridvc_front_rejections", "refused submissions");
  id_backpressure_sheds_ = reg.counter("gridvc_front_backpressure_sheds",
                                       "tickets reclaimed by the global limit");
  id_queued_gauge_ = reg.gauge("gridvc_front_queued", "front-queued tickets");
  id_queued_bytes_gauge_ = reg.gauge("gridvc_front_queued_bytes",
                                     "front-queued bytes");
}

std::uint64_t FrontEnd::connect(const std::string& tenant) {
  const auto it = tenant_index_.find(tenant);
  if (it == tenant_index_.end()) {
    throw NotFoundError("unknown tenant '" + tenant + "'");
  }
  const std::uint64_t id = next_session_++;
  Session s;
  s.tenant_idx = it->second;
  s.last_activity = sim_.now();
  sessions_.emplace(id, std::move(s));
  ++sessions_open_;
  sim_.obs().registry().set(id_sessions_open_gauge_,
                            static_cast<double>(sessions_open_));
  sim_.obs().emit({sim_.now(), obs::TraceEventType::kFrontSessionOpened, id,
                   it->second, 0.0, 0.0});
  arm_reaper();
  return id;
}

FrontEnd::Session& FrontEnd::checked_session(std::uint64_t session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    throw NotFoundError("unknown session " + std::to_string(session));
  }
  if (!it->second.open) {
    throw NotFoundError("session " + std::to_string(session) +
                        " is closed (disconnected or idle-reaped)");
  }
  it->second.last_activity = sim_.now();
  return it->second;
}

Bytes FrontEnd::ticket_bytes(const Ticket& t) const {
  return std::accumulate(t.files.begin(), t.files.end(), Bytes{0});
}

void FrontEnd::refill_bucket(TenantRt& t) {
  if (t.cfg.submit_rate <= 0.0) return;
  const Seconds now = sim_.now();
  const double cap = std::max(1.0, t.cfg.submit_burst);
  t.bucket.tokens = std::min(
      cap, t.bucket.tokens + (now - t.bucket.last_refill) * t.cfg.submit_rate);
  t.bucket.last_refill = now;
}

Seconds FrontEnd::backpressure_hint(const TenantRt& t) const {
  double frac = 0.0;
  if (config_.global_queued_bytes_limit > 0) {
    frac = std::max(frac, static_cast<double>(total_queued_bytes_) /
                              static_cast<double>(config_.global_queued_bytes_limit));
  }
  if (t.cfg.max_queued_bytes > 0) {
    frac = std::max(frac, static_cast<double>(t.queued_bytes) /
                              static_cast<double>(t.cfg.max_queued_bytes));
  }
  return config_.retry_after_base * (1.0 + frac);
}

SubmitResult FrontEnd::reject(TenantRt& t, std::uint64_t session,
                              RejectReason reason, Seconds retry_after) {
  ++t.stats.rejected;
  auto& reg = sim_.obs().registry();
  reg.add(t.id_rejected);
  reg.add(id_rejections_);
  sim_.obs().emit({sim_.now(), obs::TraceEventType::kFrontReject, 0, session,
                   retry_after, static_cast<double>(reason)});
  SubmitResult r;
  r.accepted = false;
  r.reason = reason;
  r.retry_after = retry_after;
  return r;
}

SubmitResult FrontEnd::submit(std::uint64_t session, std::string label,
                              std::vector<Bytes> files,
                              gridftp::TransferSpec transfer_template,
                              const TicketOptions& options,
                              const std::string& idempotency_key,
                              TicketDoneFn on_done) {
  Session& s = checked_session(session);
  GRIDVC_REQUIRE(!files.empty(), "a submission needs at least one file");
  if (!idempotency_key.empty()) {
    const auto it = s.idempotency.find(idempotency_key);
    if (it != s.idempotency.end()) {
      SubmitResult r;
      r.accepted = true;
      r.duplicate = true;
      r.ticket = it->second;
      return r;
    }
  }
  TenantRt& t = tenants_[s.tenant_idx];
  ++t.stats.submitted;
  sim_.obs().registry().add(t.id_submitted);

  // Gate order: control-plane health, then rate, then space. A client
  // hammering a sick service learns to back off before it spends quota.
  if (config_.breaker != nullptr &&
      config_.breaker->state(sim_.now()) == recovery::BreakerState::kOpen) {
    const Seconds wait =
        std::max(0.0, config_.breaker->reopen_at() - sim_.now());
    return reject(t, session, RejectReason::kBreakerOpen, wait);
  }
  refill_bucket(t);
  if (t.cfg.submit_rate > 0.0) {
    if (t.bucket.tokens < 1.0) {
      const Seconds wait = (1.0 - t.bucket.tokens) / t.cfg.submit_rate;
      return reject(t, session, RejectReason::kRateLimited, wait);
    }
    t.bucket.tokens -= 1.0;
  }

  const Bytes bytes =
      std::accumulate(files.begin(), files.end(), Bytes{0});
  if (t.cfg.max_queued_bytes > 0 &&
      t.queued_bytes + bytes > t.cfg.max_queued_bytes) {
    return reject(t, session, RejectReason::kQuotaBytes, backpressure_hint(t));
  }
  if (t.cfg.queue_limit > 0 && t.queue.size() >= t.cfg.queue_limit) {
    if (!evict_for(t, options.priority)) {
      return reject(t, session, RejectReason::kQueueFull, backpressure_hint(t));
    }
  }
  if (config_.global_queued_bytes_limit > 0 &&
      total_queued_bytes_ + bytes > config_.global_queued_bytes_limit &&
      !reclaim_global(bytes, s.tenant_idx)) {
    return reject(t, session, RejectReason::kBackpressure, backpressure_hint(t));
  }

  Ticket k;
  k.label = std::move(label);
  k.files = std::move(files);
  k.transfer_template = std::move(transfer_template);
  k.options = options;
  k.on_done = std::move(on_done);
  k.tenant_idx = s.tenant_idx;
  k.status.session = session;
  k.status.tenant = t.cfg.name;
  k.status.bytes_total = bytes;
  k.status.submitted_at = sim_.now();
  const std::uint64_t ticket = accept_ticket(t, s, session, std::move(k));
  if (!idempotency_key.empty()) {
    s.idempotency.emplace(idempotency_key, ticket);
  }
  SubmitResult r;
  r.accepted = true;
  r.ticket = ticket;
  pump();
  return r;
}

std::uint64_t FrontEnd::accept_ticket(TenantRt& t, Session& s,
                                      std::uint64_t session_id, Ticket ticket) {
  const std::uint64_t id = next_ticket_++;
  ticket.status.ticket = id;
  const Bytes bytes = ticket.status.bytes_total;
  tickets_.emplace(id, std::move(ticket));
  s.tickets.push_back(id);
  t.queue.push_back(id);
  t.queued_bytes += bytes;
  total_queued_bytes_ += bytes;
  ++total_queued_;
  max_ticket_bytes_ = std::max(max_ticket_bytes_, bytes);
  ++t.stats.accepted;
  sim_.obs().registry().add(t.id_accepted);
  sync_tenant_gauges(t);
  sim_.obs().emit({sim_.now(), obs::TraceEventType::kFrontSubmit, id, session_id,
                   static_cast<double>(bytes),
                   static_cast<double>(tickets_.at(id).tenant_idx)});
  return id;
}

void FrontEnd::drop_queued(std::uint64_t ticket, TicketState state,
                           FrontShedReason reason) {
  Ticket& k = tickets_.at(ticket);
  TenantRt& t = tenants_[k.tenant_idx];
  const auto it = std::find(t.queue.begin(), t.queue.end(), ticket);
  GRIDVC_REQUIRE(it != t.queue.end(), "drop_queued: ticket not queued");
  t.queue.erase(it);
  const Bytes bytes = k.status.bytes_total;
  t.queued_bytes -= bytes;
  total_queued_bytes_ -= bytes;
  --total_queued_;
  k.status.state = state;
  k.status.finished_at = sim_.now();
  auto& reg = sim_.obs().registry();
  if (state == TicketState::kShed) {
    ++t.stats.shed;
    reg.add(t.id_shed);
    sim_.obs().emit({sim_.now(), obs::TraceEventType::kFrontShed, ticket,
                     static_cast<std::uint64_t>(reason), 0.0, 0.0});
  } else {
    ++t.stats.cancelled;
    sim_.obs().emit({sim_.now(), obs::TraceEventType::kFrontCancel, ticket,
                     0, 0.0, 0.0});
  }
  sync_tenant_gauges(t);
  if (k.on_done) {
    sim_.schedule_in(0.0, [this, ticket] {
      const Ticket& done = tickets_.at(ticket);
      done.on_done(done.status);
    });
  }
}

bool FrontEnd::evict_for(TenantRt& t, int incoming_pri) {
  switch (t.cfg.policy) {
    case OverloadPolicy::kRejectNew:
      return false;
    case OverloadPolicy::kShedOldest:
      drop_queued(t.queue.front(), TicketState::kShed,
                  FrontShedReason::kQueueFullEvicted);
      return true;
    case OverloadPolicy::kPriority: {
      // Victim is the oldest (smallest ticket id) among the
      // lowest-priority queued tickets, and an incoming submission that
      // merely ties is itself refused.
      std::uint64_t victim = t.queue.front();
      const auto key = [&](std::uint64_t id) {
        return std::pair(tickets_.at(id).options.priority, id);
      };
      for (const std::uint64_t id : t.queue) {
        if (key(id) < key(victim)) victim = id;
      }
      if (tickets_.at(victim).options.priority >= incoming_pri) return false;
      drop_queued(victim, TicketState::kShed,
                  FrontShedReason::kQueueFullEvicted);
      return true;
    }
  }
  return false;
}

bool FrontEnd::reclaim_global(Bytes needed, std::uint32_t submitter_idx) {
  const double total_weight = std::accumulate(
      tenants_.begin(), tenants_.end(), 0.0,
      [](double acc, const TenantRt& t) { return acc + t.cfg.weight; });
  const auto fair_share = [&](std::size_t i) {
    return static_cast<double>(config_.global_queued_bytes_limit) *
           tenants_[i].cfg.weight / total_weight;
  };
  // Plan first, execute only if the plan frees enough: a submission that
  // ends up rejected anyway must not have destroyed anyone's queued
  // work. Victim order: over-fair-share tenant of lowest weight, ties to
  // the higher tenant index; within a tenant, oldest ticket first. The
  // submitter never sheds others to cover its own excess, and an
  // at-or-under-share tenant is never victimised — that is the isolation
  // invariant the chaos harness checks.
  std::vector<Bytes> hypo_queued(tenants_.size());
  std::vector<std::size_t> hypo_next(tenants_.size(), 0);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    hypo_queued[i] = tenants_[i].queued_bytes;
  }
  std::vector<std::uint64_t> plan;
  Bytes hypo_total = total_queued_bytes_;
  while (hypo_total + needed > config_.global_queued_bytes_limit) {
    std::int64_t victim = -1;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      if (i == submitter_idx || hypo_next[i] >= tenants_[i].queue.size()) continue;
      if (static_cast<double>(hypo_queued[i]) <= fair_share(i)) continue;
      if (victim < 0 ||
          std::pair(tenants_[i].cfg.weight, -static_cast<std::int64_t>(i)) <
              std::pair(tenants_[static_cast<std::size_t>(victim)].cfg.weight,
                        -victim)) {
        victim = static_cast<std::int64_t>(i);
      }
    }
    if (victim < 0) return false;
    const auto v = static_cast<std::size_t>(victim);
    const std::uint64_t ticket = tenants_[v].queue[hypo_next[v]++];
    const Bytes bytes = tickets_.at(ticket).status.bytes_total;
    hypo_queued[v] -= bytes;
    hypo_total -= bytes;
    plan.push_back(ticket);
  }
  auto& reg = sim_.obs().registry();
  for (const std::uint64_t ticket : plan) {
    const std::size_t v = tickets_.at(ticket).tenant_idx;
    if (static_cast<double>(tenants_[v].queued_bytes) <= fair_share(v)) {
      ++isolation_violations_;
    }
    drop_queued(ticket, TicketState::kShed, FrontShedReason::kBackpressureShed);
    reg.add(id_backpressure_sheds_);
  }
  return true;
}

bool FrontEnd::backend_has_capacity() const {
  return service_.queued_tasks() == 0 &&
         service_.active_tasks() <
             static_cast<std::size_t>(service_.config().max_active_tasks);
}

void FrontEnd::pump() {
  if (pumping_) return;
  pumping_ = true;
  const auto eligible = [&](const TenantRt& t) {
    return !t.queue.empty() && (t.cfg.max_in_flight == 0 ||
                                t.in_flight < t.cfg.max_in_flight);
  };
  while (backend_has_capacity() && total_queued_ > 0) {
    std::size_t scanned = 0;
    while (scanned < tenants_.size() && !eligible(tenants_[cursor_])) {
      // A tenant blocked only by its own in-flight cap is throttled, not
      // starved: its rotation counter resets.
      if (!tenants_[cursor_].queue.empty()) tenants_[cursor_].rotations_waited = 0;
      mid_visit_ = false;
      cursor_ = (cursor_ + 1) % static_cast<std::uint32_t>(tenants_.size());
      ++scanned;
    }
    if (!eligible(tenants_[cursor_])) break;  // backlog exists but all capped
    TenantRt& t = tenants_[cursor_];
    if (!mid_visit_) {
      t.deficit += static_cast<double>(config_.drr_quantum) * t.cfg.weight;
    }
    mid_visit_ = false;
    bool dispatched_any = false;
    bool capacity_break = false;
    while (eligible(t)) {
      const std::uint64_t head = t.queue.front();
      const double bytes =
          static_cast<double>(tickets_.at(head).status.bytes_total);
      if (bytes > t.deficit) break;
      if (!backend_has_capacity()) {
        capacity_break = true;
        break;
      }
      t.deficit -= bytes;
      dispatch(head);
      dispatched_any = true;
    }
    if (capacity_break) {
      // Slot shortage interrupted the visit mid-deficit; resume this
      // tenant, without a fresh quantum, when a completion frees a slot.
      mid_visit_ = true;
      break;
    }
    if (t.queue.empty()) {
      t.deficit = 0.0;  // classic DRR: deficit does not survive an empty queue
      t.rotations_waited = 0;
    } else if (dispatched_any) {
      t.rotations_waited = 0;
    } else {
      // Deficit granted, head still too big: the bound says it fits
      // within ceil(max_ticket_bytes / quantum) grants. Beyond that the
      // dispatcher is starving the tenant — a contract violation.
      ++t.rotations_waited;
      const double quantum =
          static_cast<double>(config_.drr_quantum) * t.cfg.weight;
      const auto bound = static_cast<std::uint64_t>(std::ceil(
                             static_cast<double>(max_ticket_bytes_) / quantum)) +
                         1;
      if (t.rotations_waited > bound) ++starvation_violations_;
    }
    cursor_ = (cursor_ + 1) % static_cast<std::uint32_t>(tenants_.size());
  }
  pumping_ = false;
}

void FrontEnd::dispatch(std::uint64_t ticket_id) {
  Ticket& k = tickets_.at(ticket_id);
  TenantRt& t = tenants_[k.tenant_idx];
  GRIDVC_REQUIRE(!t.queue.empty() && t.queue.front() == ticket_id,
                 "dispatch: ticket must be the tenant's queue head");
  t.queue.pop_front();
  const Bytes bytes = k.status.bytes_total;
  t.queued_bytes -= bytes;
  total_queued_bytes_ -= bytes;
  --total_queued_;
  ++t.in_flight;
  ++total_in_flight_;

  const std::uint64_t task = service_.submit(
      k.label, k.files, k.transfer_template,
      [this, ticket_id](const gridftp::TaskStatus& st) {
        on_backend_done(ticket_id, st);
      },
      k.options.deadline);
  const Seconds now = sim_.now();
  const Seconds wait = now - k.status.submitted_at;
  k.status.state = TicketState::kDispatched;
  k.status.task_id = task;
  k.status.dispatched_at = now;
  ++t.stats.dispatched;
  auto& reg = sim_.obs().registry();
  reg.add(t.id_dispatched);
  reg.observe(t.id_queue_wait_hist, wait);
  sync_tenant_gauges(t);
  sim_.obs().emit({now, obs::TraceEventType::kFrontDispatch, ticket_id, task,
                   wait, static_cast<double>(k.tenant_idx)});
}

void FrontEnd::on_backend_done(std::uint64_t ticket_id,
                               const gridftp::TaskStatus& status) {
  Ticket& k = tickets_.at(ticket_id);
  TenantRt& t = tenants_[k.tenant_idx];
  k.status.state = TicketState::kDone;
  k.status.task_state = status.state;
  k.status.bytes_done = status.bytes_done;
  k.status.finished_at = sim_.now();
  --t.in_flight;
  --total_in_flight_;
  ++t.stats.completed;
  sim_.obs().registry().add(t.id_completed);
  sync_tenant_gauges(t);
  if (k.on_done) k.on_done(k.status);
  pump();
}

FrontEnd::Ticket& FrontEnd::owned_ticket(std::uint64_t session, std::uint64_t ticket) {
  checked_session(session);
  const auto it = tickets_.find(ticket);
  if (it == tickets_.end() || it->second.status.session != session) {
    throw NotFoundError("session " + std::to_string(session) +
                        " owns no ticket " + std::to_string(ticket));
  }
  return it->second;
}

TicketStatus FrontEnd::poll(std::uint64_t session, std::uint64_t ticket) {
  owned_ticket(session, ticket);
  return status(ticket);
}

TicketStatus FrontEnd::status(std::uint64_t ticket) const {
  const auto it = tickets_.find(ticket);
  if (it == tickets_.end()) {
    throw NotFoundError("unknown ticket " + std::to_string(ticket));
  }
  TicketStatus out = it->second.status;
  if (out.state == TicketState::kDispatched) {
    out.bytes_done = service_.status(out.task_id).bytes_done;
  }
  return out;
}

bool FrontEnd::cancel(std::uint64_t session, std::uint64_t ticket) {
  Ticket& k = owned_ticket(session, ticket);
  switch (k.status.state) {
    case TicketState::kQueued:
      drop_queued(ticket, TicketState::kCancelled,
                  FrontShedReason::kDisconnectAborted);
      return true;
    case TicketState::kDispatched:
      return service_.cancel(k.status.task_id);
    default:
      return false;
  }
}

void FrontEnd::disconnect(std::uint64_t session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    throw NotFoundError("unknown session " + std::to_string(session));
  }
  if (!it->second.open) return;  // idempotent
  close_session(session, it->second, kCloseDisconnect);
}

void FrontEnd::close_session(std::uint64_t session_id, Session& s,
                             std::uint64_t close_reason) {
  s.open = false;
  --sessions_open_;
  sim_.obs().registry().set(id_sessions_open_gauge_,
                            static_cast<double>(sessions_open_));
  if (config_.abort_on_disconnect) {
    for (const std::uint64_t ticket : s.tickets) {
      const Ticket& k = tickets_.at(ticket);
      if (k.status.state == TicketState::kQueued) {
        drop_queued(ticket, TicketState::kShed,
                    FrontShedReason::kDisconnectAborted);
      } else if (k.status.state == TicketState::kDispatched) {
        service_.cancel(k.status.task_id);
      }
    }
  }
  sim_.obs().emit({sim_.now(), obs::TraceEventType::kFrontSessionClosed,
                   session_id, close_reason, 0.0, 0.0});
}

TenantStats FrontEnd::tenant_stats(const std::string& tenant) const {
  const auto it = tenant_index_.find(tenant);
  if (it == tenant_index_.end()) {
    throw NotFoundError("unknown tenant '" + tenant + "'");
  }
  const TenantRt& t = tenants_[it->second];
  TenantStats out = t.stats;
  out.queued = t.queue.size();
  out.queued_bytes = t.queued_bytes;
  out.in_flight = t.in_flight;
  return out;
}

std::vector<TenantConfig> FrontEnd::tenants() const {
  std::vector<TenantConfig> out;
  out.reserve(tenants_.size());
  for (const TenantRt& t : tenants_) out.push_back(t.cfg);
  return out;
}

void FrontEnd::arm_reaper() {
  if (config_.session_idle_timeout <= 0.0) return;
  if (reaper_.pending()) return;
  reaper_ = sim_.schedule_periodic(sim_.now() + config_.reap_interval,
                                   config_.reap_interval,
                                   [this] { return reap_idle(); });
}

bool FrontEnd::reap_idle() {
  const Seconds now = sim_.now();
  for (auto& [id, s] : sessions_) {
    if (s.open && now - s.last_activity >= config_.session_idle_timeout) {
      ++sessions_reaped_;
      sim_.obs().registry().add(id_sessions_reaped_);
      close_session(id, s, kCloseIdleReap);
    }
  }
  // Once every session is closed the sweep disarms so the simulator can
  // drain; the next connect() re-arms it.
  return sessions_open_ > 0;
}

void FrontEnd::stop_reaper() { reaper_.cancel(); }

std::size_t FrontEnd::crash_and_recover_service(
    const gridftp::TransferSpec& transfer_template) {
  // The crash drops the service's completion hooks. Task ids survive
  // replay, so the dispatched tickets name the tasks to reattach.
  std::map<std::uint64_t, std::uint64_t> ticket_of_task;
  for (const auto& [id, k] : tickets_) {
    if (k.status.state == TicketState::kDispatched) {
      ticket_of_task.emplace(k.status.task_id, id);
    }
  }
  const std::size_t restored = service_.crash_and_recover(
      transfer_template,
      [this, ticket_of_task](const gridftp::TaskStatus& st) {
        on_backend_done(ticket_of_task.at(st.id), st);
      });
  GRIDVC_REQUIRE(restored == ticket_of_task.size(),
                 "service recovery must restore exactly the dispatched tickets");
  return restored;
}

void FrontEnd::sync_tenant_gauges(TenantRt& t) {
  auto& reg = sim_.obs().registry();
  reg.set(t.id_queued_gauge, static_cast<double>(t.queue.size()));
  reg.set(t.id_queued_bytes_gauge, static_cast<double>(t.queued_bytes));
  reg.set(t.id_in_flight_gauge, static_cast<double>(t.in_flight));
  reg.set(id_queued_gauge_, static_cast<double>(total_queued_));
  reg.set(id_queued_bytes_gauge_, static_cast<double>(total_queued_bytes_));
}

}  // namespace gridvc::frontend
