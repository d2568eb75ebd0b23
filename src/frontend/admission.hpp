// Multi-tenant admission front-end (work-queue style) for the managed
// transfer service.
//
// The TransferService (§V's hosted successor to hand-rolled GridFTP
// scripts) trusts its callers: anyone can submit, its FIFO queue is
// unbounded, and one greedy client starves the rest. This layer is the
// one front door — the only home of bounded waiting, overload policy and
// tenancy: clients open *sessions*, submissions are accounted to
// *tenants* with explicit quotas (submission-rate token buckets,
// queued-bytes and queue-length caps), accepted work waits in per-tenant
// queues and is dispatched into the backend's active slots by weighted
// deficit round-robin, and refusals carry a retry-after hint so
// well-behaved clients back off instead of hammering.
//
// The chaos harness enforces no starvation (see workload/chaos.cpp): a
// tenant with backlog is served within its deficit-round-robin bound —
// it never waits more than ceil(max_ticket_bytes / quantum_bytes(tenant))
// + 1 full rotations while other backlog drains
// (starvation_violations() == 0).
//
// Everything runs in sim time on the owning Simulator; the wall-clock
// daemon (frontend/daemon.hpp) maps real time onto it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gridftp/transfer_service.hpp"
#include "sim/simulator.hpp"

namespace gridvc::frontend {

/// What a full tenant queue does to an incoming submission.
enum class OverloadPolicy : std::uint8_t {
  kRejectNew,   ///< refuse the incoming submission; queued work is sacred
  kShedOldest,  ///< shed the ticket that has waited longest (doomed anyway)
  /// Shed the lowest-priority queued ticket when the incoming one
  /// strictly outranks it, else refuse the incoming submission. Tie-break
  /// is FIFO within a priority level: the victim is the *oldest* (smallest
  /// ticket id) among the lowest-priority queued tickets, and an incoming
  /// submission that merely ties the queue minimum is itself refused —
  /// earlier arrivals win. test_frontend pins the rule.
  kPriority,
};

/// Per-tenant admission contract. Zero means "unlimited" for every
/// quota knob, so a default-constructed tenant is admitted freely and
/// only weighted fairness applies.
struct TenantConfig {
  /// Unique tenant tag; it names the tenant's metrics
  /// (gridvc_front_tenant_<name>_*), so non-empty and space-free.
  std::string name;
  /// Deficit-round-robin share; must be > 0. A weight-2 tenant drains
  /// twice the bytes per rotation of a weight-1 tenant.
  double weight = 1.0;
  /// Token-bucket submission rate limit, submissions/sec (0 = none). The
  /// bucket holds FrontEnd::kSubmitBurst tokens.
  double submit_rate = 0.0;
  /// Cap on bytes waiting in this tenant's front queue (0 = none).
  Bytes max_queued_bytes = 0;
  /// Cap on tickets waiting in this tenant's front queue (0 = none).
  std::size_t queue_limit = 0;
  /// What a full per-tenant queue does to the *incoming* submission.
  OverloadPolicy policy = OverloadPolicy::kRejectNew;
};

struct FrontEndConfig {
  std::vector<TenantConfig> tenants;  ///< at least one
  /// Sessions idle longer than this are reaped (closed) by a sweep every
  /// half timeout; 0 disables reaping. Any successful submit/poll/cancel
  /// refreshes the session's activity clock.
  Seconds session_idle_timeout = 0.0;
};

/// Why a submission was refused (kFrontReject value2 / wire "reason").
enum class RejectReason : std::uint8_t {
  kRateLimited = 0,  ///< token bucket empty
  kQueueFull = 1,    ///< per-tenant queue_limit, policy refused entry
  kQuotaBytes = 2,   ///< per-tenant max_queued_bytes would be exceeded
};

const char* reject_reason_name(RejectReason reason);

/// Per-submission knobs of a ticket.
struct TicketOptions {
  /// Rank in the tenant's queue under OverloadPolicy::kPriority; higher
  /// outranks lower.
  int priority = 0;
  /// Backend task deadline (TransferService::submit), measured from
  /// dispatch; 0 = none, and submit() refuses a negative one.
  Seconds deadline = 0.0;
};

struct SubmitResult {
  bool accepted = false;
  /// True when an idempotency key matched a previous submission; `ticket`
  /// is the original ticket and no new work was created.
  bool duplicate = false;
  std::uint64_t ticket = 0;
  RejectReason reason = RejectReason::kRateLimited;  ///< valid when !accepted
  /// Backpressure hint: seconds the client should wait before retrying.
  Seconds retry_after = 0.0;  ///< valid when !accepted
};

enum class TicketState : std::uint8_t {
  kQueued,      ///< accepted, waiting in the tenant's front queue
  kDispatched,  ///< handed to the backend, task running or backend-queued
  kDone,        ///< backend task reached a terminal state
  kShed,        ///< shed by the front-end while queued (never dispatched)
  kCancelled,   ///< cancelled by the client while queued
};

struct TicketStatus {
  std::uint64_t ticket = 0;
  std::uint64_t session = 0;
  std::string tenant;
  TicketState state = TicketState::kQueued;
  /// Backend task id; valid from kDispatched on.
  std::uint64_t task_id = 0;
  Bytes bytes_total = 0;
  Bytes bytes_done = 0;  ///< live backend progress once dispatched
  /// Terminal backend state; valid when state == kDone.
  gridftp::TaskState task_state = gridftp::TaskState::kQueued;
  Seconds submitted_at = 0.0;
  Seconds dispatched_at = 0.0;
  Seconds finished_at = 0.0;
};

/// Live per-tenant accounting snapshot.
struct TenantStats {
  std::uint64_t submitted = 0;   ///< submit() calls, duplicates excluded
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;    ///< all RejectReasons
  std::uint64_t shed = 0;        ///< queued tickets shed by the front-end
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;   ///< backend terminal, whatever the state
  std::uint64_t cancelled = 0;   ///< client cancels of queued tickets
  std::size_t queued = 0;        ///< current front-queue depth
  Bytes queued_bytes = 0;
  std::size_t in_flight = 0;     ///< dispatched, backend not yet terminal
};

/// The admission front-end. Owns client sessions, per-tenant queues and
/// quotas, and the DRR dispatcher that feeds the backend service. It
/// only dispatches into free active slots, so the backend queue stays
/// empty and all waiting happens where fairness is enforced. The backend
/// should take no submissions from anyone else.
class FrontEnd {
 public:
  /// Resolution hook of an accepted ticket; fires exactly once with its
  /// terminal status, so the caller can free what the ticket held: kDone
  /// synchronously when the backend task turns terminal (a service crash
  /// included), kShed or kCancelled on a zero-delay event when the ticket
  /// leaves the front queue undispatched (no re-entry into the caller).
  using TicketDoneFn = std::function<void(const TicketStatus&)>;

  /// Bytes of deficit granted per unit weight per DRR rotation.
  static constexpr Bytes kDrrQuantum = 64ull * 1024 * 1024;
  /// Token-bucket capacity (burst size) of a rate-limited tenant.
  static constexpr double kSubmitBurst = 8.0;
  /// Scale of the queue-depth-derived retry-after hints: a refusal asks
  /// for kRetryAfterBase x (1 + the tenant's queued-bytes quota fill).
  static constexpr Seconds kRetryAfterBase = 5.0;

  FrontEnd(sim::Simulator& sim, gridftp::TransferService& service,
           FrontEndConfig config);
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Open a session for `tenant` (must name a configured tenant; throws
  /// NotFoundError otherwise). Returns the session id.
  std::uint64_t connect(const std::string& tenant);

  /// Submit a batch of files through `session`. Applies, in order: the
  /// tenant's token bucket, the queued-bytes quota and the per-tenant
  /// queue limit (policy may evict a queued ticket). On acceptance the ticket waits in the tenant's queue until the DRR
  /// dispatcher finds it a backend slot. `idempotency_key`, when
  /// non-empty, dedupes retries within the session: a repeat returns the
  /// original ticket with duplicate = true and is charged nothing.
  /// `on_done`, if set, resolves an accepted ticket (see TicketDoneFn);
  /// a refused submission never calls it. Throws NotFoundError for
  /// unknown or closed sessions, and PreconditionError for an empty file
  /// list or a negative deadline; a thrown submission is not counted.
  SubmitResult submit(std::uint64_t session, std::string label,
                      std::vector<Bytes> files,
                      gridftp::TransferSpec transfer_template,
                      const TicketOptions& options = {},
                      const std::string& idempotency_key = "",
                      TicketDoneFn on_done = nullptr);

  /// Status of a ticket owned by `session`; refreshes the session's
  /// activity clock. Throws NotFoundError for unknown/closed sessions
  /// and for tickets the session does not own.
  TicketStatus poll(std::uint64_t session, std::uint64_t ticket);

  /// Cancel a ticket: queued tickets leave the front queue and never
  /// dispatch (state kCancelled); dispatched tickets forward to
  /// TransferService::cancel. Returns whether anything changed. Throws
  /// like poll().
  bool cancel(std::uint64_t session, std::uint64_t ticket);

  /// Close a session. Its unfinished work is adopted: queued tickets
  /// still dispatch and in-flight tasks run to completion, they just can
  /// no longer be polled. Idempotent on closed sessions; throws
  /// NotFoundError for ids never issued.
  void disconnect(std::uint64_t session);

  /// Ticket status without a session (operator tooling; no activity
  /// refresh, works for tickets of closed sessions).
  TicketStatus status(std::uint64_t ticket) const;

  /// Per-tenant accounting. Throws NotFoundError for unknown names.
  TenantStats tenant_stats(const std::string& tenant) const;

  std::size_t sessions_open() const { return sessions_open_; }
  std::uint64_t sessions_reaped() const { return sessions_reaped_; }
  std::size_t queued_tickets() const { return total_queued_; }
  std::size_t in_flight() const { return total_in_flight_; }

  /// Fairness-contract violation counter; must stay 0 (a chaos
  /// invariant). Non-zero means the dispatcher broke its own
  /// no-starvation guarantee, not that clients misbehaved.
  std::uint64_t starvation_violations() const { return starvation_violations_; }

  /// True when no front-queued tickets and no dispatched-but-unfinished
  /// work remain (sessions may still be open). The daemon drains on
  /// SIGTERM by running the sim until quiescent().
  bool quiescent() const { return total_queued_ == 0 && total_in_flight_ == 0; }

  /// Cancel the idle-reap timer so a drained simulator can go idle.
  /// connect() re-arms it. Used by the daemon's shutdown path.
  void stop_reaper();

  /// Crash the backend service and recover it from its journal (the
  /// front-end process survives): each dispatched ticket is reattached to
  /// its recovered task, which runs on `transfer_template`, and still
  /// resolves exactly once. Returns tasks restored.
  std::size_t crash_and_recover_service(
      const gridftp::TransferSpec& transfer_template);

 private:
  struct TokenBucket {
    double tokens = 0.0;
    Seconds last_refill = 0.0;
  };

  struct Ticket {
    TicketStatus status;
    std::string label;
    std::vector<Bytes> files;
    gridftp::TransferSpec transfer_template;
    TicketOptions options;
    TicketDoneFn on_done;
    std::uint32_t tenant_idx = 0;
  };

  struct Session {
    std::uint32_t tenant_idx = 0;
    bool open = true;
    Seconds last_activity = 0.0;
    std::map<std::string, std::uint64_t> idempotency;  ///< key -> ticket
  };

  struct TenantRt {
    TenantConfig cfg;
    TokenBucket bucket;
    std::deque<std::uint64_t> queue;  ///< ticket ids, FIFO
    double deficit = 0.0;             ///< DRR deficit, bytes
    Bytes queued_bytes = 0;
    std::size_t in_flight = 0;
    /// Consecutive DRR visits that granted deficit but dispatched
    /// nothing while this tenant had backlog; bounded by the
    /// no-starvation contract.
    std::uint64_t rotations_waited = 0;
    TenantStats stats;
    obs::MetricId id_submitted, id_accepted, id_rejected, id_shed,
        id_dispatched, id_completed;
    obs::MetricId id_queued_gauge, id_queued_bytes_gauge, id_in_flight_gauge;
    obs::MetricId id_queue_wait_hist;
  };

  Session& checked_session(std::uint64_t session);
  /// The ticket, if `session` is open and owns it; throws NotFoundError.
  Ticket& owned_ticket(std::uint64_t session, std::uint64_t ticket);
  Seconds backpressure_hint(const TenantRt& t) const;
  void refill_bucket(TenantRt& t);
  SubmitResult reject(TenantRt& t, std::uint64_t session, RejectReason reason,
                      Seconds retry_after);
  std::uint64_t accept_ticket(TenantRt& t, std::uint64_t session_id, Ticket ticket);
  /// Remove `ticket` from its tenant's front queue and mark it `state`
  /// (kShed or kCancelled). Updates gauges and totals and schedules the
  /// ticket's on_done.
  void drop_queued(std::uint64_t ticket, TicketState state);
  /// Evict per the tenant's own overload policy to admit `incoming_pri`;
  /// returns false when the policy says the incoming submission loses.
  bool evict_for(TenantRt& t, int incoming_pri);
  bool backend_has_capacity() const;
  void pump();
  void dispatch(std::uint64_t ticket_id);
  void on_backend_done(std::uint64_t ticket_id,
                       const gridftp::TaskStatus& status);
  void close_session(std::uint64_t session_id, Session& s,
                     std::uint64_t close_reason);
  void arm_reaper();
  bool reap_idle();
  void sync_tenant_gauges(TenantRt& t);

  sim::Simulator& sim_;
  gridftp::TransferService& service_;
  FrontEndConfig config_;
  std::vector<TenantRt> tenants_;
  std::map<std::string, std::uint32_t> tenant_index_;
  std::map<std::uint64_t, Session> sessions_;
  std::map<std::uint64_t, Ticket> tickets_;
  std::uint64_t next_session_ = 1;
  std::uint64_t next_ticket_ = 1;
  std::size_t sessions_open_ = 0;
  std::uint64_t sessions_reaped_ = 0;
  std::size_t total_queued_ = 0;
  Bytes total_queued_bytes_ = 0;
  std::size_t total_in_flight_ = 0;
  std::uint64_t starvation_violations_ = 0;
  /// Largest single-ticket byte size ever queued; feeds the starvation
  /// bound (a ticket can wait at most ceil(max/quantum) deficit grants).
  Bytes max_ticket_bytes_ = 0;
  std::uint32_t cursor_ = 0;  ///< DRR rotation position (tenant index)
  /// Set while the cursor tenant holds deficit from an interrupted visit
  /// (backend ran out of slots mid-burst); the next pump resumes that
  /// visit without granting a second quantum.
  bool mid_visit_ = false;
  bool pumping_ = false;
  sim::EventHandle reaper_;
  obs::MetricId id_sessions_open_gauge_;
  obs::MetricId id_sessions_reaped_;
  obs::MetricId id_rejections_;
  obs::MetricId id_queued_gauge_;
  obs::MetricId id_queued_bytes_gauge_;
};

}  // namespace gridvc::frontend
