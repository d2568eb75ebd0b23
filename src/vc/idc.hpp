// OSCARS-like Inter-Domain Controller (single-domain scheduler).
//
// Implements the reservation lifecycle of §IV:
//
//   createReservation(startTime, endTime, bandwidth, endpoints)
//     -> path computation against the bandwidth calendar
//     -> admission (book) or rejection
//   provisioning ("automatic signaling"): just before startTime the IDC
//     configures the path's routers. With kBatchedAutomatic signaling the
//     IDC flushes provisioning work at fixed 1-min batch boundaries, so a
//     request for *immediate* use activates only at the first boundary at
//     least one full interval after submission — the paper's "minimum
//     1-min VC setup delay". With kImmediate signaling, activation follows
//     submission by a fixed hardware signaling delay (the paper's 50 ms
//     scenario).
//   release: at endTime (or on early release, which returns the calendar
//     tail to the pool).
//
// The IDC is control-plane only; callers attach the activated circuit's
// rate guarantee to data-plane flows (see gridftp::TransferEngine). It
// keeps live circuits only: a circuit that is released, cancelled or
// given up is forgotten, and the trace and metrics are its record.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>

#include "common/id_slab.hpp"
#include "recovery/circuit_breaker.hpp"
#include "recovery/journal.hpp"
#include "sim/simulator.hpp"
#include "vc/bandwidth_calendar.hpp"
#include "vc/path_computation.hpp"
#include "vc/reservation.hpp"

namespace gridvc::vc {

struct IdcConfig {
  SignalingMode mode = SignalingMode::kBatchedAutomatic;
  /// Fixed signaling latency for kImmediate (the paper's 50 ms scenario).
  Seconds immediate_setup_delay = 0.05;
  /// Fraction of each link's capacity the calendar may hand to circuits.
  double reservable_fraction = 1.0;
  /// Optional write-ahead journal for accepted reservations. When set,
  /// admissions are appended, modifications re-appended, and terminal
  /// circuits tombstoned, so a restarted IDC can rebuild its live
  /// reservation set with recover_from_journal(). Must outlive the Idc.
  recovery::Journal* journal = nullptr;
};

class Idc {
 public:
  /// Circuit lifecycle notifications.
  using CircuitFn = std::function<void(const Circuit&)>;

  Idc(sim::Simulator& sim, const net::Topology& topo, IdcConfig config = {});
  Idc(const Idc&) = delete;
  Idc& operator=(const Idc&) = delete;

  /// Outcome of create_reservation.
  struct SubmitResult {
    std::optional<std::uint64_t> circuit_id;  ///< set iff accepted
    RejectReason reason = RejectReason::kInvalidRequest;
    bool accepted() const { return circuit_id.has_value(); }
  };

  /// Submit an advance reservation. `on_active` fires when the data plane
  /// guarantee takes effect (again after each successful re-signal),
  /// `on_release` when the circuit is torn down, and `on_failure` when an
  /// active circuit loses its path — at that point the guarantee is
  /// already gone, so callers should degrade to best-effort immediately.
  SubmitResult create_reservation(const ReservationRequest& request,
                                  CircuitFn on_active = nullptr,
                                  CircuitFn on_release = nullptr,
                                  CircuitFn on_failure = nullptr);

  /// Convenience for the common data-transfer pattern: a circuit for
  /// immediate use, held for `duration` *after* it activates. The
  /// reservation window booked in the calendar is
  /// [predicted activation, predicted activation + duration).
  SubmitResult request_immediate(net::NodeId src, net::NodeId dst, BitsPerSecond bandwidth,
                                 Seconds duration, CircuitFn on_active = nullptr,
                                 CircuitFn on_release = nullptr,
                                 CircuitFn on_failure = nullptr);

  /// Cancel a reservation that has not yet activated.
  void cancel(std::uint64_t circuit_id);

  /// OSCARS modifyReservation: change a scheduled (not yet active)
  /// reservation's bandwidth and/or extend/shorten its end time. The
  /// change is admitted against the calendar with the old booking
  /// removed (flat first; malleable reservations that no longer fit flat
  /// are re-shaped); on rejection the old booking — flat or shaped — is
  /// reinstated untouched. Returns true when the modification was
  /// admitted.
  bool modify_reservation(std::uint64_t circuit_id, BitsPerSecond new_bandwidth,
                          Seconds new_end_time);

  /// Control-plane reaction to a link failure. Scheduled circuits whose
  /// path uses `failed_link` are re-pathed around it synchronously if the
  /// calendar allows, and cancelled otherwise; the return value counts
  /// these synchronous re-paths; a re-pathed circuit keeps its admitted
  /// activation. Active circuits lose their data plane *now*: they
  /// transition to CircuitState::kFailed, their booking is freed and
  /// on_failure fires. While the window lasts, the IDC then re-signals
  /// them: after a backoff (5 s, doubling per failed attempt) it
  /// recomputes a path avoiding failed links and, if the calendar admits
  /// it for the remaining window, re-activates the circuit (on_active
  /// fires again). Re-signaling gives up after 3 failed path
  /// computations or when the window expires; a client-side circuit
  /// breaker (recovery::CircuitBreakerConfig defaults) wrapped around it
  /// fails attempts fast while control-plane outages keep tripping it.
  /// Subsequent path computation avoids the failed link until
  /// restore_link() is called.
  std::size_t handle_link_failure(net::LinkId failed_link);

  /// Return a previously failed link to service.
  void restore_link(net::LinkId link);

  /// Control-plane outage window: while in_outage(), create_reservation
  /// fails fast with RejectReason::kControlPlaneDown and re-signal probes
  /// count as breaker failures. Idempotent per state.
  void begin_outage();
  void end_outage();
  bool in_outage() const { return in_outage_; }

  /// Rebuild the live reservation set from the configured journal after a
  /// crash/restart. For each surviving record whose window has not
  /// expired, the path is recomputed and the *remaining* window rebooked;
  /// records that no longer fit (expired, or the calendar/topology moved
  /// on) are dropped and tombstoned. Lifecycle callbacks do not survive a
  /// process crash — recovered circuits re-activate without notifying the
  /// (dead) original requester, as a real restarted OSCARS would.
  /// Requires a journal and an empty IDC; returns the count restored.
  std::size_t recover_from_journal();

  /// Re-signaling circuit breaker state (for tests and chaos invariants).
  const recovery::CircuitBreaker& breaker() const { return breaker_; }

  /// Tear down an active circuit before its endTime; the calendar tail is
  /// returned to the pool. Lenient on any id the IDC issued that is no
  /// longer live (released, cancelled, given up or rejected) — a caller's
  /// teardown legitimately races the circuit's own lifecycle; a kFailed
  /// circuit with a pending re-signal has the re-signal dropped and is
  /// retired. An id the IDC never issued is a precondition failure.
  void release_now(std::uint64_t circuit_id);

  /// Lifecycle record of a live circuit (scheduled, active, or failed and
  /// awaiting re-signal); any other id throws. The records live in a
  /// reused slab, so the reference is valid until the next call that
  /// creates or retires a circuit: an accepted reservation, or a release,
  /// cancellation or failure, whether a caller or one of the IDC's own
  /// events makes it. Copy the Circuit to keep it longer.
  const Circuit& circuit(std::uint64_t circuit_id) const;
  const BandwidthCalendar& calendar() const { return calendar_; }

  /// Circuits still carrying live control-plane state (scheduled, active,
  /// or awaiting re-signal). A circuit is forgotten when it retires, so
  /// this never grows with run length.
  std::size_t live_circuit_count() const { return entries_.size(); }

  /// The activation time the current signaling mode would give a request
  /// submitted at `submit_time` for a circuit wanted from `start_time`.
  Seconds predicted_activation(Seconds submit_time, Seconds start_time) const;

  /// Counters for blocking-probability studies (Ablation D).
  ///
  /// A request marked ReservationRequest::is_retry that is rejected again
  /// lands in `rejected_retries` only: the per-reason counters and
  /// blocking_probability() see each blocked demand exactly once, however
  /// many times the caller retries it.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_no_bandwidth = 0;
    std::uint64_t rejected_no_route = 0;
    std::uint64_t rejected_invalid = 0;
    std::uint64_t rejected_retries = 0;  ///< re-rejections of retried requests
    std::uint64_t released = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;      ///< active circuits that lost their path
    std::uint64_t resignaled = 0;  ///< failed circuits successfully re-homed
    std::uint64_t outages = 0;          ///< control-plane outage windows entered
    std::uint64_t rejected_outage = 0;  ///< fail-fast rejections during outages
    std::uint64_t recovered = 0;        ///< reservations rebuilt from the journal
    std::uint64_t shaped = 0;        ///< malleable admissions that needed shaping
    std::uint64_t defragmented = 0;  ///< shaped admissions that needed defrag
    std::uint64_t rerouted = 0;      ///< shaped admissions off the primary route

    /// Admission-verdict blocking probability (the paper's call-blocking
    /// statistic): of the demands the IDC actually *evaluated*, the
    /// fraction blocked for capacity or connectivity. Outage fail-fasts
    /// never reached admission, so they are excluded here — use
    /// rejection_rate() for the client-observed failure fraction.
    double blocking_probability() const {
      const double total = static_cast<double>(accepted + rejected_no_bandwidth +
                                               rejected_no_route + rejected_invalid);
      return total > 0.0
                 ? static_cast<double>(rejected_no_bandwidth + rejected_no_route) / total
                 : 0.0;
    }

    /// Client-observed rejection fraction: every first-submission outcome
    /// counts, *including* outage fail-fasts (a client whose request dies
    /// against a down control plane was rejected, whatever the reason).
    /// `rejected_retries` stays out of both numerator and denominator by
    /// design — a retried demand already counted when it first blocked,
    /// and folding retries in would double-count one blocked demand.
    double rejection_rate() const {
      const double rejections =
          static_cast<double>(rejected_no_bandwidth + rejected_no_route +
                              rejected_invalid + rejected_outage);
      const double total = static_cast<double>(accepted) + rejections;
      return total > 0.0 ? rejections / total : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    Circuit circuit;
    ReservationId booking = 0;
    /// Activation instant the booking was admitted against (the shaping
    /// window starts here; a shaped profile may begin later if the first
    /// headroom slice was full).
    Seconds activation = 0.0;
    CircuitFn on_active;
    CircuitFn on_release;
    CircuitFn on_failure;
    sim::EventHandle activate_event;
    sim::EventHandle release_event;
    sim::EventHandle resignal_event;
    int resignal_attempts = 0;
  };

  /// Insert the record of a new live circuit `id`, scheduled, with no
  /// booking, events or callbacks yet; the caller assigns its request,
  /// path, profile, booking, activation and activate event.
  Entry& new_entry(std::uint64_t id);
  /// When a scheduled circuit's guarantee takes effect: its shaped
  /// profile's first segment, else the admitted activation.
  static Seconds activate_at(const Entry& entry);
  /// Run a lifecycle callback on a snapshot of `circuit` (see idc.cpp).
  void notify(const CircuitFn& fn, const Circuit& circuit);
  void activate(std::uint64_t id);
  /// Tear down active circuit `id` now: free its booking, fire on_release
  /// and retire it. The end-time event and release_now both end here.
  void release(std::uint64_t id);
  /// End of a circuit's booked window: the profile's last segment end for
  /// shaped circuits (shaping may deliver the volume before endTime),
  /// request.end_time otherwise.
  static Seconds booked_end(const Circuit& c);
  /// Greedy earliest-fill shaper (Chen & Primet): pack the request's
  /// volume (bandwidth x [activation, endTime)) into the path's headroom
  /// as stepwise segments, each capped by max_bandwidth (when positive)
  /// and floored to whole kbit/s so calendar arithmetic stays exact.
  /// `earliest` floors where the fill may begin without shrinking the
  /// volume owed — reshaping a displaced circuit mid-flight must deliver
  /// its full admitted volume but may only book from now on.
  /// nullopt when the path cannot deliver the volume by the deadline.
  std::optional<std::vector<RateSegment>> shape_request(const net::Path& path,
                                                        const ReservationRequest& request,
                                                        Seconds activation,
                                                        Seconds earliest = 0.0) const;
  /// Defragmentation: temporarily release every *scheduled* malleable
  /// circuit sharing a link with `path` over the request window, shape
  /// the new request into the opened gap, then re-shape the displaced
  /// circuits (ascending id). All-or-nothing: any failure reinstates
  /// every displaced booking exactly and returns nullopt.
  std::optional<std::vector<RateSegment>> shape_with_defrag(const net::Path& path,
                                                            const ReservationRequest& request,
                                                            Seconds activation);
  /// Active circuit lost `failed_link`: kFailed + on_failure + re-signal.
  void fail_active(std::uint64_t id, net::LinkId failed_link);
  void schedule_resignal(std::uint64_t id);
  void try_resignal(std::uint64_t id);
  /// Forget a terminal circuit: cancel its events, destroy its callbacks
  /// and recycle its record. No-op for unknown ids.
  void retire(std::uint64_t id);
  /// Record a rejection in stats/metrics, honouring the is_retry rule.
  void count_rejection(const ReservationRequest& request, RejectReason reason);
  /// Append (or re-append after modify/defrag) an accepted reservation to
  /// the configured journal, shaped profile included. No-op without a
  /// journal.
  void journal_reservation(std::uint64_t id, const ReservationRequest& request,
                           Seconds activation, const std::vector<RateSegment>& profile);
  /// Refresh the calendar-bookings gauge after any book/release.
  void sync_calendar_gauge();

  sim::Simulator& sim_;
  const net::Topology& topo_;
  IdcConfig config_;
  BandwidthCalendar calendar_;
  /// The filter of every circuit path search. Written only by
  /// handle_link_failure and restore_link, which both invalidate paths_.
  std::set<net::LinkId> failed_links_;
  PathComputer paths_;
  /// Live circuits by id. An erased record is recycled, not destroyed:
  /// its path and profile keep their capacity for the next circuit.
  IdSlab<std::uint64_t, Entry> entries_;
  std::uint64_t next_id_ = 1;
  /// Path buffers of admission, re-pathing, re-signaling and recovery:
  /// a path is computed into one and swapped into its circuit's record
  /// once it is chosen, so every buffer keeps its capacity.
  net::Path path_;
  net::Path alt_path_;
  /// What callbacks read (see notify): one snapshot reused, with its
  /// vectors' capacity, while no callback runs inside another.
  Circuit snapshot_;
  bool snapshot_in_use_ = false;
  /// journal_reservation's record buffer, reused across records.
  std::string journal_buffer_;
  Stats stats_;
  std::size_t active_circuits_ = 0;
  recovery::CircuitBreaker breaker_;
  bool in_outage_ = false;
  std::uint64_t outage_count_ = 0;
  Seconds outage_began_ = 0.0;
  obs::MetricId id_requests_;
  obs::MetricId id_accepted_;
  obs::MetricId id_rejected_no_bandwidth_;
  obs::MetricId id_rejected_no_route_;
  obs::MetricId id_rejected_invalid_;
  obs::MetricId id_rejected_retries_;
  obs::MetricId id_rejected_outage_;
  obs::MetricId id_outages_;
  obs::MetricId id_released_;
  obs::MetricId id_cancelled_;
  obs::MetricId id_repathed_;
  obs::MetricId id_shaped_;
  obs::MetricId id_defragmented_;
  obs::MetricId id_rerouted_;
  obs::MetricId id_failed_;
  obs::MetricId id_resignaled_;
  obs::MetricId id_active_gauge_;
  obs::MetricId id_bookings_gauge_;
  obs::MetricId id_setup_delay_hist_;
  obs::MetricId id_resignal_delay_hist_;
};

}  // namespace gridvc::vc
