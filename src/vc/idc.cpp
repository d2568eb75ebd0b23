#include "vc/idc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/profiler.hpp"
#include "recovery/record.hpp"

namespace gridvc::vc {

namespace {
// kBatchedAutomatic's batch boundary cadence: the ESnet "1 min" of §IV.
constexpr Seconds kBatchInterval = 60.0;
// Re-signaling a failed circuit: the pause before the first attempt, its
// growth per failed attempt, and the attempts before the IDC gives up.
constexpr Seconds kResignalBackoff = 5.0;
constexpr double kResignalBackoffMultiplier = 2.0;
constexpr int kMaxResignalAttempts = 3;

// The part of `profile` still ahead at `now`: segments already delivered
// stay gone; the straddling segment restarts now.
std::vector<RateSegment> remaining_profile(const std::vector<RateSegment>& profile,
                                           Seconds now) {
  std::vector<RateSegment> clipped;
  for (const RateSegment& s : profile) {
    if (s.end <= now) continue;
    clipped.push_back({std::max(s.start, now), s.end, s.rate});
  }
  return clipped;
}
}  // namespace

Idc::Idc(sim::Simulator& sim, const net::Topology& topo, IdcConfig config)
    : sim_(sim),
      topo_(topo),
      config_(config),
      calendar_(topo, config.reservable_fraction),
      paths_(topo, calendar_, [this](net::LinkId l) { return !failed_links_.contains(l); }) {
  GRIDVC_REQUIRE(config_.immediate_setup_delay >= 0.0, "negative signaling delay");

  obs::MetricsRegistry& reg = sim_.obs().registry();
  id_requests_ = reg.counter("gridvc_vc_requests", "createReservation calls received");
  id_accepted_ = reg.counter("gridvc_vc_accepted", "Reservations admitted to the calendar");
  id_rejected_no_bandwidth_ = reg.counter(
      "gridvc_vc_rejected_no_bandwidth", "First rejections: no path with enough headroom");
  id_rejected_no_route_ = reg.counter("gridvc_vc_rejected_no_route",
                                      "First rejections: endpoints not connected");
  id_rejected_invalid_ = reg.counter("gridvc_vc_rejected_invalid",
                                     "First rejections: malformed window or rate");
  id_rejected_retries_ = reg.counter(
      "gridvc_vc_rejected_retries",
      "Re-rejections of requests marked is_retry (not independent blocks)");
  id_rejected_outage_ = reg.counter(
      "gridvc_vc_rejected_outage",
      "Fail-fast rejections while the control plane was unreachable");
  id_outages_ = reg.counter("gridvc_vc_outages", "Control-plane outage windows entered");
  id_released_ = reg.counter("gridvc_vc_released", "Circuits torn down after activation");
  id_cancelled_ = reg.counter("gridvc_vc_cancelled", "Reservations cancelled before activation");
  id_repathed_ = reg.counter("gridvc_vc_repathed",
                             "Circuits re-homed around a failed link");
  id_shaped_ = reg.counter("gridvc_vc_shaped",
                           "Malleable reservations admitted via profile shaping");
  id_defragmented_ = reg.counter(
      "gridvc_vc_defragmented", "Shaped admissions that reshaped existing bookings");
  id_rerouted_ = reg.counter("gridvc_vc_rerouted",
                             "Shaped admissions placed off the primary route");
  id_failed_ = reg.counter("gridvc_vc_failed",
                           "Active circuits that lost a link on their path");
  id_resignaled_ = reg.counter("gridvc_vc_resignaled",
                               "Failed circuits successfully re-signaled");
  id_active_gauge_ = reg.gauge("gridvc_vc_active_circuits",
                               "Circuits whose guarantee is currently in force");
  id_bookings_gauge_ = reg.gauge("gridvc_vc_calendar_bookings",
                                 "Live bookings in the bandwidth calendar");
  id_setup_delay_hist_ = reg.log_histogram(
      "gridvc_vc_setup_delay_seconds",
      "Observed activation - requested start (the paper's VC setup delay)");
  id_resignal_delay_hist_ = reg.log_histogram(
      "gridvc_vc_resignal_delay_seconds",
      "Failure -> re-activation for circuits re-homed after a link failure");
}

Seconds Idc::booked_end(const Circuit& c) {
  return c.profile.empty() ? c.request.end_time : c.profile.back().end;
}

Seconds Idc::activate_at(const Entry& entry) {
  const Circuit& c = entry.circuit;
  return c.profile.empty() ? entry.activation : c.profile.front().start;
}

Idc::Entry& Idc::new_entry(std::uint64_t id) {
  Entry& entry = entries_.insert(id);
  // A recycled record still holds the last circuit that used it (kept for
  // its vectors' capacity): reset every field the caller does not assign.
  Circuit& c = entry.circuit;
  c.id = id;
  c.state = CircuitState::kScheduled;
  c.provision_started = sim_.now();
  c.active_at = 0.0;
  c.released_at = 0.0;
  c.failed_at = 0.0;
  c.profile.clear();
  entry.booking = 0;
  entry.activation = 0.0;
  entry.activate_event = {};
  entry.release_event = {};
  entry.resignal_event = {};
  entry.resignal_attempts = 0;
  return entry;
}

void Idc::notify(const CircuitFn& fn, const Circuit& circuit) {
  if (!fn) return;
  // A callback may create, modify, release or cancel circuits, its own
  // included, and retiring its own circuit recycles the record and
  // destroys the callbacks in it. So the callback runs as a copy (inline,
  // for the small closures the callers pass) on a snapshot of the
  // circuit. The snapshot is reused, its vectors keeping their capacity,
  // unless an outer callback is still reading it; a nested callback gets
  // a fresh copy.
  const CircuitFn call = fn;
  if (snapshot_in_use_) {
    const Circuit fresh = circuit;
    call(fresh);
    return;
  }
  snapshot_ = circuit;
  snapshot_in_use_ = true;
  struct Done {
    bool& in_use;
    ~Done() { in_use = false; }
  } done{snapshot_in_use_};
  call(snapshot_);
}

void Idc::count_rejection(const ReservationRequest& request, RejectReason reason) {
  obs::MetricsRegistry& reg = sim_.obs().registry();
  if (reason == RejectReason::kControlPlaneDown) {
    // Not an admission verdict (retried or not): the IDC never evaluated
    // the demand, so it stays out of the blocking-probability counters.
    ++stats_.rejected_outage;
    reg.add(id_rejected_outage_);
    return;
  }
  if (request.is_retry) {
    // A retried demand was already counted when it first blocked; folding
    // the retry into the per-reason counters would double-count it.
    ++stats_.rejected_retries;
    reg.add(id_rejected_retries_);
    return;
  }
  switch (reason) {
    case RejectReason::kInsufficientBandwidth:
      ++stats_.rejected_no_bandwidth;
      reg.add(id_rejected_no_bandwidth_);
      break;
    case RejectReason::kNoRoute:
      ++stats_.rejected_no_route;
      reg.add(id_rejected_no_route_);
      break;
    case RejectReason::kInvalidRequest:
      ++stats_.rejected_invalid;
      reg.add(id_rejected_invalid_);
      break;
    case RejectReason::kControlPlaneDown:
      break;  // handled above
  }
}

void Idc::sync_calendar_gauge() {
  sim_.obs().registry().set(id_bookings_gauge_,
                            static_cast<double>(calendar_.active_bookings()));
}

Seconds Idc::predicted_activation(Seconds submit_time, Seconds start_time) const {
  const Seconds want = std::max(submit_time, start_time);
  switch (config_.mode) {
    case SignalingMode::kImmediate:
      return want + config_.immediate_setup_delay;
    case SignalingMode::kBatchedAutomatic: {
      // A request must be received a full interval before the batch
      // boundary that provisions it, so immediate-use requests wait at
      // least one interval: the "minimum 1-min VC setup delay" of §IV.
      const Seconds earliest = submit_time + kBatchInterval;
      if (start_time >= earliest) {
        // Advance reservation: the IDC provisions just before startTime.
        return start_time;
      }
      const double k = std::ceil(earliest / kBatchInterval);
      return k * kBatchInterval;
    }
  }
  return want;  // unreachable
}

Idc::SubmitResult Idc::create_reservation(const ReservationRequest& request,
                                          CircuitFn on_active, CircuitFn on_release,
                                          CircuitFn on_failure) {
  GRIDVC_PROF_ZONE("vc.idc.admit");
  // Ids are allocated per *request*, so rejected requests and the circuit
  // they would have become share one id in the trace stream.
  const std::uint64_t id = next_id_++;
  obs::Observability& obs = sim_.obs();
  obs.registry().add(id_requests_);
  obs.emit({sim_.now(), obs::TraceEventType::kVcRequested, id,
            request.is_retry ? 1u : 0u, request.bandwidth,
            request.end_time - request.start_time});

  const auto reject = [&](RejectReason reason) {
    SubmitResult result;
    result.reason = reason;
    count_rejection(request, reason);
    obs.emit({sim_.now(), obs::TraceEventType::kVcRejected, id,
              static_cast<std::uint64_t>(reason), 0.0, 0.0});
    return result;
  };

  if (in_outage_) {
    // Fail fast: the control plane is unreachable, so no path computation
    // or admission happens. Callers see the distinct reason and can back
    // off (or trip their own breaker) instead of interpreting the outage
    // as a capacity signal.
    return reject(RejectReason::kControlPlaneDown);
  }

  if (request.bandwidth <= 0.0 || request.end_time <= request.start_time ||
      request.src >= topo_.node_count() || request.dst >= topo_.node_count() ||
      request.src == request.dst) {
    return reject(RejectReason::kInvalidRequest);
  }
  if (request.malleable && request.max_bandwidth > 0.0 &&
      request.max_bandwidth < request.bandwidth) {
    // A step cap below the preferred rate could not carry even the flat
    // shape the request nominally asks for.
    return reject(RejectReason::kInvalidRequest);
  }

  const Seconds activation = predicted_activation(sim_.now(), request.start_time);
  if (activation >= request.end_time) {
    // The circuit would expire before it could be set up.
    return reject(RejectReason::kInvalidRequest);
  }

  // The chosen path ends up in path_, and moves into the record below.
  net::Path& path = path_;
  bool found = paths_.compute(request.src, request.dst, request.bandwidth, activation,
                              request.end_time, path);
  std::vector<RateSegment> profile;  // stays empty for flat admissions
  bool defragmented = false;
  bool rerouted = false;
  if (!found && request.malleable) {
    // Flat admission failed: shape the volume into the primary route's
    // headroom, defragment it when that fails, and only then reroute.
    // The primary shaping route is the plain failure-filtered shortest
    // path — a link with no *flat* headroom over the whole window can
    // still carry the volume in its slack slices.
    const auto try_shape =
        [&](const net::Path& p) -> std::optional<std::vector<RateSegment>> {
      auto shaped = shape_request(p, request, activation);
      if (!shaped) {
        shaped = shape_with_defrag(p, request, activation);
        if (shaped) defragmented = true;
      }
      return shaped;
    };
    net::Path& primary = alt_path_;
    if (paths_.shortest(request.src, request.dst, primary)) {
      auto shaped = try_shape(primary);
      if (shaped) {
        path.swap(primary);
        found = true;
      } else {
        // Reroute-on-rejection: ask path computation for a detour with at
        // least half the preferred rate of flat headroom — a deliberately
        // weaker probe than the admission that just failed — and shape
        // into it before giving up.
        if (paths_.compute(request.src, request.dst, request.bandwidth * 0.5, activation,
                           request.end_time, path) &&
            path != primary) {
          shaped = try_shape(path);
          if (shaped) {
            found = true;
            rerouted = true;
          }
        }
      }
      if (shaped) profile = std::move(*shaped);
    }
  }
  if (!found) {
    // Distinguish "no connectivity at all" from "connected but full";
    // failed links count as connectivity.
    return reject(paths_.reachable(request.src, request.dst)
                      ? RejectReason::kInsufficientBandwidth
                      : RejectReason::kNoRoute);
  }

  SubmitResult result;
  const ReservationId booking =
      profile.empty() ? calendar_.book(path, activation, request.end_time, request.bandwidth)
                      : calendar_.book(path, profile);
  Entry& entry = new_entry(id);
  entry.circuit.request = request;
  entry.circuit.path.swap(path);
  entry.circuit.profile = profile;
  entry.activation = activation;
  entry.booking = booking;
  if (!profile.empty()) {
    ++stats_.shaped;
    obs.registry().add(id_shaped_);
    if (defragmented) {
      ++stats_.defragmented;
      obs.registry().add(id_defragmented_);
    }
    if (rerouted) {
      ++stats_.rerouted;
      obs.registry().add(id_rerouted_);
    }
  }
  entry.on_active = std::move(on_active);
  entry.on_release = std::move(on_release);
  entry.on_failure = std::move(on_failure);
  entry.activate_event = sim_.schedule_at(activate_at(entry), [this, id] { activate(id); });
  ++stats_.accepted;
  journal_reservation(id, request, activation, profile);
  obs.registry().add(id_accepted_);
  sync_calendar_gauge();
  // aux bit 0: shaped; bit 1: needed defrag; bit 2: placed off-route.
  const std::uint64_t aux = (profile.empty() ? 0u : 1u) | (defragmented ? 2u : 0u) |
                            (rerouted ? 4u : 0u);
  obs.emit({sim_.now(), obs::TraceEventType::kVcGranted, id, aux,
            activation - request.start_time, request.bandwidth});
  result.circuit_id = id;
  return result;
}

Idc::SubmitResult Idc::request_immediate(net::NodeId src, net::NodeId dst,
                                         BitsPerSecond bandwidth, Seconds duration,
                                         CircuitFn on_active, CircuitFn on_release,
                                         CircuitFn on_failure) {
  GRIDVC_REQUIRE(duration > 0.0, "circuit duration must be positive");
  const Seconds activation = predicted_activation(sim_.now(), sim_.now());
  ReservationRequest request;
  request.src = src;
  request.dst = dst;
  request.bandwidth = bandwidth;
  request.start_time = sim_.now();
  request.end_time = activation + duration;
  request.description = "immediate";
  return create_reservation(request, std::move(on_active), std::move(on_release),
                            std::move(on_failure));
}

void Idc::activate(std::uint64_t id) {
  Entry& entry = entries_.at(id);
  entry.circuit.state = CircuitState::kActive;
  entry.circuit.active_at = sim_.now();
  entry.release_event =
      sim_.schedule_at(booked_end(entry.circuit), [this, id] { release(id); });
  ++active_circuits_;
  obs::Observability& obs = sim_.obs();
  obs.registry().observe(id_setup_delay_hist_, entry.circuit.setup_delay());
  obs.registry().set(id_active_gauge_, static_cast<double>(active_circuits_));
  obs.emit({sim_.now(), obs::TraceEventType::kVcActivated, id, 0,
            entry.circuit.setup_delay(), entry.circuit.request.bandwidth});
  notify(entry.on_active, entry.circuit);
}

void Idc::release(std::uint64_t id) {
  Entry& entry = entries_.at(id);
  entry.release_event.cancel();  // consumed already when it is the caller
  entry.circuit.state = CircuitState::kReleased;
  entry.circuit.released_at = sim_.now();
  ++stats_.released;
  // Releasing the whole booking frees the window tail for other circuits;
  // freeing the (already elapsed) head has no effect on future admission.
  calendar_.release(entry.booking);
  entry.booking = 0;
  GRIDVC_REQUIRE(active_circuits_ > 0, "active circuit underflow");
  --active_circuits_;
  obs::Observability& obs = sim_.obs();
  obs.registry().add(id_released_);
  obs.registry().set(id_active_gauge_, static_cast<double>(active_circuits_));
  sync_calendar_gauge();
  obs.emit({sim_.now(), obs::TraceEventType::kVcReleased, id, 0,
            entry.circuit.released_at - entry.circuit.active_at,
            entry.circuit.request.bandwidth});
  notify(entry.on_release, entry.circuit);
  retire(id);
}

void Idc::cancel(std::uint64_t circuit_id) {
  Entry* const found = entries_.find(circuit_id);
  // Terminal circuits are forgotten, and past cancellation anyway.
  GRIDVC_REQUIRE(found != nullptr, "cancel of a circuit that is not live");
  Entry& entry = *found;
  GRIDVC_REQUIRE(entry.circuit.state == CircuitState::kScheduled,
                 "cancel after activation; use release_now");
  entry.activate_event.cancel();
  calendar_.release(entry.booking);
  entry.circuit.state = CircuitState::kCancelled;
  ++stats_.cancelled;
  sim_.obs().registry().add(id_cancelled_);
  sync_calendar_gauge();
  sim_.obs().emit({sim_.now(), obs::TraceEventType::kVcCancelled, circuit_id, 0, 0.0, 0.0});
  retire(circuit_id);
}

void Idc::release_now(std::uint64_t circuit_id) {
  GRIDVC_REQUIRE(circuit_id != 0 && circuit_id < next_id_, "release_now of unknown circuit");
  Entry* const found = entries_.find(circuit_id);
  // Not live: the caller's teardown raced the circuit's own lifecycle
  // (end-time release, failure), or the request was rejected — nothing
  // left to free.
  if (found == nullptr) return;
  if (found->circuit.state == CircuitState::kFailed) {
    // The data plane is already gone and the booking freed; drop any
    // pending re-signal and retire the record.
    retire(circuit_id);
    return;
  }
  GRIDVC_REQUIRE(found->circuit.state == CircuitState::kActive,
                 "release_now of a circuit that is not active");
  release(circuit_id);
}

bool Idc::modify_reservation(std::uint64_t circuit_id, BitsPerSecond new_bandwidth,
                             Seconds new_end_time) {
  Entry* const found = entries_.find(circuit_id);
  GRIDVC_REQUIRE(found != nullptr, "modify of unknown circuit");
  Entry& entry = *found;
  GRIDVC_REQUIRE(entry.circuit.state == CircuitState::kScheduled,
                 "only scheduled reservations can be modified");
  GRIDVC_REQUIRE(new_bandwidth > 0.0, "modified bandwidth must be positive");
  const Seconds activation = entry.activation;
  if (new_end_time <= activation) return false;

  // Re-admit with the old booking out of the way so shrinking always
  // succeeds and growing is checked against true residual capacity. A
  // rejection rebooks exactly the segments the calendar held.
  const std::vector<RateSegment> old_segments = calendar_.booking_segments(entry.booking);
  calendar_.release(entry.booking);
  const auto reinstate = [&] { entry.booking = calendar_.book(entry.circuit.path, old_segments); };
  const Seconds old_activate_at = activate_at(entry);
  std::vector<RateSegment> new_profile;  // empty = the change fits flat
  if (calendar_.fits(entry.circuit.path, activation, new_end_time, new_bandwidth)) {
    entry.booking =
        calendar_.book(entry.circuit.path, activation, new_end_time, new_bandwidth);
  } else if (entry.circuit.request.malleable &&
             (entry.circuit.request.max_bandwidth <= 0.0 ||
              entry.circuit.request.max_bandwidth >= new_bandwidth)) {
    ReservationRequest changed = entry.circuit.request;
    changed.bandwidth = new_bandwidth;
    changed.end_time = new_end_time;
    const auto shaped = shape_request(entry.circuit.path, changed, activation);
    if (!shaped) {
      reinstate();
      return false;
    }
    new_profile = *shaped;
    entry.booking = calendar_.book(entry.circuit.path, new_profile);
  } else {
    reinstate();
    return false;
  }
  entry.circuit.request.bandwidth = new_bandwidth;
  entry.circuit.request.end_time = new_end_time;
  entry.circuit.profile = std::move(new_profile);
  const Seconds new_activate_at = activate_at(entry);
  if (new_activate_at != old_activate_at) {
    entry.activate_event.cancel();
    const std::uint64_t id = circuit_id;
    entry.activate_event = sim_.schedule_at(new_activate_at, [this, id] { activate(id); });
  }
  journal_reservation(circuit_id, entry.circuit.request, activation, entry.circuit.profile);
  sync_calendar_gauge();
  return true;
}

std::size_t Idc::handle_link_failure(net::LinkId failed_link) {
  GRIDVC_REQUIRE(failed_link < topo_.link_count(), "link id out of range");
  failed_links_.insert(failed_link);
  paths_.invalidate();

  // Collect first, then process by lookup: failure handling retires
  // entries and fires callbacks that may mutate entries_ re-entrantly
  // (new reservations, release_now on other circuits), which would
  // invalidate an in-place iteration.
  std::vector<std::uint64_t> affected;
  entries_.for_each([&](std::uint64_t id, const Entry& entry) {
    const Circuit& c = entry.circuit;
    if (c.state != CircuitState::kScheduled && c.state != CircuitState::kActive) return;
    if (std::find(c.path.begin(), c.path.end(), failed_link) != c.path.end()) {
      affected.push_back(id);
    }
  });

  std::size_t repathed = 0;
  for (const std::uint64_t id : affected) {
    Entry* const found = entries_.find(id);
    if (found == nullptr) continue;  // a callback tore it down meanwhile
    Entry& entry = *found;
    Circuit& c = entry.circuit;

    if (c.state == CircuitState::kActive) {
      fail_active(id, failed_link);
      continue;
    }
    if (c.state != CircuitState::kScheduled) continue;

    // Scheduled: re-admit around the failed link with the old booking out
    // of the way so the replacement can reuse the surviving portion.
    calendar_.release(entry.booking);
    entry.booking = 0;
    if (!c.profile.empty()) {
      // Shaped circuit: keep the admitted profile, just re-home it on a
      // surviving route that still fits every segment.
      if (paths_.shortest(c.request.src, c.request.dst, alt_path_) &&
          calendar_.fits(alt_path_, c.profile)) {
        c.path.swap(alt_path_);
        entry.booking = calendar_.book(c.path, c.profile);
        ++repathed;
        sim_.obs().registry().add(id_repathed_);
        continue;
      }
    } else {
      // Flat circuit: its activate event stays where admission put it,
      // so the booking starts there too.
      if (paths_.compute(c.request.src, c.request.dst, c.request.bandwidth, entry.activation,
                         c.request.end_time, alt_path_)) {
        c.path.swap(alt_path_);
        entry.booking = calendar_.book(c.path, entry.activation, c.request.end_time,
                                       c.request.bandwidth);
        ++repathed;
        sim_.obs().registry().add(id_repathed_);
        continue;
      }
    }
    // No alternative: the reservation cannot be honored.
    entry.activate_event.cancel();
    c.state = CircuitState::kCancelled;
    ++stats_.cancelled;
    sim_.obs().registry().add(id_cancelled_);
    sim_.obs().emit({sim_.now(), obs::TraceEventType::kVcCancelled, id, 0, 0.0, 0.0});
    retire(id);
  }
  sync_calendar_gauge();
  return repathed;
}

void Idc::fail_active(std::uint64_t id, net::LinkId failed_link) {
  Entry& entry = entries_.at(id);
  Circuit& c = entry.circuit;
  GRIDVC_REQUIRE(c.state == CircuitState::kActive, "fail_active on non-active circuit");

  // The data plane is gone now: free the booking, stop the scheduled
  // end-time release, and surface the loss before any re-signal attempt.
  calendar_.release(entry.booking);
  entry.booking = 0;
  entry.release_event.cancel();
  c.state = CircuitState::kFailed;
  c.failed_at = sim_.now();
  ++stats_.failed;
  GRIDVC_REQUIRE(active_circuits_ > 0, "active circuit underflow");
  --active_circuits_;

  obs::Observability& obs = sim_.obs();
  obs.registry().add(id_failed_);
  obs.registry().set(id_active_gauge_, static_cast<double>(active_circuits_));
  obs.emit({sim_.now(), obs::TraceEventType::kVcFailed, id, failed_link,
            c.failed_at - c.active_at, c.request.bandwidth});
  notify(entry.on_failure, c);

  // The callback may have torn the circuit down (release_now retires it
  // and recycles the record): look it up again.
  const Entry* const after = entries_.find(id);
  if (after == nullptr || after->circuit.state != CircuitState::kFailed) return;
  if (sim_.now() < booked_end(after->circuit)) {
    schedule_resignal(id);
  } else {
    retire(id);
  }
}

void Idc::schedule_resignal(std::uint64_t id) {
  Entry& entry = entries_.at(id);
  ++entry.resignal_attempts;
  const Seconds delay =
      kResignalBackoff *
      std::pow(kResignalBackoffMultiplier, static_cast<double>(entry.resignal_attempts - 1));
  entry.resignal_event = sim_.schedule_in(delay, [this, id] { try_resignal(id); });
}

void Idc::try_resignal(std::uint64_t id) {
  Entry* const found = entries_.find(id);
  if (found == nullptr) return;  // released/retired while waiting
  Entry& entry = *found;
  Circuit& c = entry.circuit;
  if (c.state != CircuitState::kFailed) return;

  const Seconds now = sim_.now();
  if (now >= booked_end(c)) {
    retire(id);  // the reservation window ran out during the outage
    return;
  }
  if (!breaker_.allow(now)) {
    // Breaker open: fail fast without touching the control plane or
    // consuming a re-signal attempt; come back once a probe is allowed.
    const Seconds retry_at =
        std::max(now + kResignalBackoff, breaker_.reopen_at());
    entry.resignal_event = sim_.schedule_at(retry_at, [this, id] { try_resignal(id); });
    return;
  }
  if (in_outage_) {
    // The probe found the control plane unreachable: a breaker failure,
    // not a path-computation attempt. Retry after the plain backoff; the
    // window-expiry check above bounds the loop.
    breaker_.record_failure(now);
    entry.resignal_event =
        sim_.schedule_in(kResignalBackoff, [this, id] { try_resignal(id); });
    return;
  }
  if (!c.profile.empty()) {
    // Shaped circuit: rebook the remaining *shaped* window.
    std::vector<RateSegment> clipped = remaining_profile(c.profile, now);
    if (!paths_.shortest(c.request.src, c.request.dst, alt_path_) ||
        !calendar_.fits(alt_path_, clipped)) {
      // The control plane answered — that closes the breaker's book even
      // though admission failed for capacity reasons.
      breaker_.record_success(now);
      if (entry.resignal_attempts >= kMaxResignalAttempts) {
        retire(id);  // give up; the circuit stays failed
        return;
      }
      schedule_resignal(id);
      return;
    }
    breaker_.record_success(now);
    c.path.swap(alt_path_);
    c.profile = std::move(clipped);
    entry.booking = calendar_.book(c.path, c.profile);
  } else {
    if (!paths_.compute(c.request.src, c.request.dst, c.request.bandwidth, now,
                        c.request.end_time, alt_path_)) {
      // The control plane answered — that closes the breaker's book even
      // though admission failed for capacity reasons.
      breaker_.record_success(now);
      if (entry.resignal_attempts >= kMaxResignalAttempts) {
        retire(id);  // give up; the circuit stays failed
        return;
      }
      schedule_resignal(id);
      return;
    }
    breaker_.record_success(now);

    // Re-homed: book the remaining window and bring the guarantee back.
    c.path.swap(alt_path_);
    entry.booking = calendar_.book(c.path, now, c.request.end_time, c.request.bandwidth);
  }
  c.state = CircuitState::kActive;
  c.active_at = now;
  entry.resignal_attempts = 0;
  entry.release_event =
      sim_.schedule_at(booked_end(c), [this, id] { release(id); });
  ++active_circuits_;
  ++stats_.resignaled;

  obs::Observability& obs = sim_.obs();
  const Seconds outage = now - c.failed_at;
  obs.registry().add(id_resignaled_);
  obs.registry().observe(id_resignal_delay_hist_, outage);
  obs.registry().set(id_active_gauge_, static_cast<double>(active_circuits_));
  sync_calendar_gauge();
  // aux=1 marks a re-activation after failure; value is the outage length.
  obs.emit({now, obs::TraceEventType::kVcActivated, id, 1, outage,
            c.request.bandwidth});
  notify(entry.on_active, c);
}

void Idc::retire(std::uint64_t id) {
  Entry* const entry = entries_.find(id);
  if (entry == nullptr) return;
  entry->activate_event.cancel();
  entry->release_event.cancel();
  entry->resignal_event.cancel();
  // The erased record is recycled, not destroyed: take its callbacks out
  // so that no closure outlives its circuit. They die when retire
  // returns; the callback running now, if any, is notify's copy.
  const CircuitFn on_active = std::exchange(entry->on_active, nullptr);
  const CircuitFn on_release = std::exchange(entry->on_release, nullptr);
  const CircuitFn on_failure = std::exchange(entry->on_failure, nullptr);
  entries_.erase(id);
  if (config_.journal) config_.journal->tombstone("vc", id);
}

void Idc::restore_link(net::LinkId link) {
  failed_links_.erase(link);
  paths_.invalidate();
}

void Idc::begin_outage() {
  if (in_outage_) return;
  in_outage_ = true;
  ++outage_count_;
  outage_began_ = sim_.now();
  ++stats_.outages;
  sim_.obs().registry().add(id_outages_);
  sim_.obs().emit({sim_.now(), obs::TraceEventType::kIdcOutageBegin, outage_count_, 0,
                   0.0, 0.0});
}

void Idc::end_outage() {
  if (!in_outage_) return;
  in_outage_ = false;
  sim_.obs().emit({sim_.now(), obs::TraceEventType::kIdcOutageEnd, outage_count_, 0,
                   sim_.now() - outage_began_, 0.0});
}

std::optional<std::vector<RateSegment>> Idc::shape_request(
    const net::Path& path, const ReservationRequest& request, Seconds activation,
    Seconds earliest) const {
  GRIDVC_PROF_ZONE("vc.idc.shape");
  // Chen & Primet: the request is a volume demand — preferred rate times
  // booked window — and any stepwise profile delivering that volume by
  // the deadline honors it. Greedy earliest-fill at the highest usable
  // rate finishes the volume as early as the headroom allows, which is
  // what minimizes completion time for a work-conserving data plane.
  //
  // The volume owed is anchored at `activation` even when the fill can
  // only begin at `earliest`: a scheduled circuit being reshaped after
  // its nominal activation still owes everything it was admitted for.
  const double volume = request.bandwidth * (request.end_time - activation);
  const Seconds fill_from = std::max(activation, earliest);
  if (fill_from >= request.end_time) return std::nullopt;
  const BitsPerSecond cap = request.max_bandwidth > 0.0
                                ? request.max_bandwidth
                                : std::numeric_limits<BitsPerSecond>::infinity();
  std::vector<RateSegment> profile;
  double remaining = volume;
  for (const RateSegment& piece :
       calendar_.headroom_profile(path, fill_from, request.end_time)) {
    // Floor to whole kbit/s: the calendar quantizes to that grid, so a
    // floored rate books at or below true headroom with zero rounding.
    const BitsPerSecond rate = std::floor(std::min(cap, piece.rate) / 1000.0) * 1000.0;
    if (rate <= 0.0) continue;
    const Seconds take = std::min(piece.end - piece.start, remaining / rate);
    if (!profile.empty() && profile.back().end == piece.start &&
        profile.back().rate == rate) {
      profile.back().end = piece.start + take;
    } else {
      profile.push_back({piece.start, piece.start + take, rate});
    }
    remaining -= rate * take;
    if (remaining <= volume * 1e-12) {
      remaining = 0.0;
      break;
    }
  }
  if (remaining > 0.0) return std::nullopt;  // volume cannot meet the deadline
  return profile;
}

std::optional<std::vector<RateSegment>> Idc::shape_with_defrag(
    const net::Path& path, const ReservationRequest& request, Seconds activation) {
  GRIDVC_PROF_ZONE("vc.idc.defrag");
  // Candidates for displacement: scheduled malleable circuits sharing a
  // link with `path` whose booked window overlaps the request window.
  // Their guarantee is not yet in force, so reshaping is invisible to the
  // data plane; active circuits are never touched.
  struct Displaced {
    std::uint64_t id = 0;
    std::vector<RateSegment> segments;  // what the calendar held for it
  };
  std::vector<Displaced> displaced;
  // Collected first (ascending id, deterministic); the phases below look
  // the circuits up again by id.
  entries_.for_each([&](std::uint64_t cid, const Entry& e) {
    const Circuit& c = e.circuit;
    if (c.state != CircuitState::kScheduled || !c.request.malleable || e.booking == 0) {
      return;
    }
    if (booked_end(c) <= activation || activate_at(e) >= request.end_time) return;
    bool shares = false;
    for (net::LinkId l : c.path) {
      if (std::find(path.begin(), path.end(), l) != path.end()) {
        shares = true;
        break;
      }
    }
    if (!shares) return;
    displaced.push_back({cid, calendar_.booking_segments(e.booking)});
  });
  if (displaced.empty()) return std::nullopt;

  // Phase 1: release every displaced booking, opening the gap.
  for (const Displaced& d : displaced) {
    Entry& e = entries_.at(d.id);
    calendar_.release(e.booking);
    e.booking = 0;
  }

  // All-or-nothing: drop whatever the attempt booked, then rebook every
  // displaced circuit's own segments. Integer-kbps calendar arithmetic
  // makes the reinstate byte-exact.
  const auto rollback = [&](std::size_t rebooked, ReservationId probe) {
    for (std::size_t k = 0; k < rebooked; ++k) {
      Entry& e = entries_.at(displaced[k].id);
      calendar_.release(e.booking);
      e.booking = 0;
    }
    if (probe != 0) calendar_.release(probe);
    for (const Displaced& d : displaced) {
      Entry& e = entries_.at(d.id);
      e.booking = calendar_.book(e.circuit.path, d.segments);
    }
  };

  // Phase 2: shape the new request into the opened gap and hold that
  // capacity with a probe booking while the displaced set re-packs.
  const auto shaped = shape_request(path, request, activation);
  if (!shaped) {
    rollback(0, 0);
    return std::nullopt;
  }
  const ReservationId probe = calendar_.book(path, *shaped);

  // Phase 3: re-shape each displaced circuit around the probe, in id
  // order.
  std::vector<std::vector<RateSegment>> new_profiles(displaced.size());
  for (std::size_t k = 0; k < displaced.size(); ++k) {
    Entry& e = entries_.at(displaced[k].id);
    // A scheduled circuit's nominal activation can already be in the
    // past (its shaped profile simply starts later), so floor the
    // re-pack at now: the full admitted volume, booked from here on.
    const auto reshaped = shape_request(e.circuit.path, e.circuit.request, e.activation,
                                        sim_.now());
    if (!reshaped) {
      rollback(k, probe);
      return std::nullopt;
    }
    new_profiles[k] = *reshaped;
    e.booking = calendar_.book(e.circuit.path, new_profiles[k]);
  }

  // Commit: adopt the reshaped profiles, re-anchor activate events that
  // moved, and re-journal the displaced circuits.
  for (std::size_t k = 0; k < displaced.size(); ++k) {
    Entry& e = entries_.at(displaced[k].id);
    const Seconds old_at = activate_at(e);
    e.circuit.profile = std::move(new_profiles[k]);
    const Seconds new_at = e.circuit.profile.front().start;
    if (new_at != old_at) {
      e.activate_event.cancel();
      const std::uint64_t cid = displaced[k].id;
      e.activate_event = sim_.schedule_at(new_at, [this, cid] { activate(cid); });
    }
    journal_reservation(displaced[k].id, e.circuit.request, e.activation,
                        e.circuit.profile);
  }
  calendar_.release(probe);  // the caller books the returned profile itself
  return shaped;
}

void Idc::journal_reservation(std::uint64_t id, const ReservationRequest& request,
                              Seconds activation, const std::vector<RateSegment>& profile) {
  if (!config_.journal) return;
  // Field order (DESIGN §6) is the one recover_from_journal reads back.
  // The shaped profile goes in too, so recovery can rebook the remaining
  // *shaped* window.
  recovery::RecordWriter out(journal_buffer_);
  out.put<net::NodeId>(request.src);
  out.put<net::NodeId>(request.dst);
  out.put<BitsPerSecond>(request.bandwidth);
  out.put<Seconds>(request.start_time);
  out.put<Seconds>(request.end_time);
  out.put<Seconds>(activation);
  out.put_flag(request.malleable);
  out.put<BitsPerSecond>(request.max_bandwidth);
  out.put_count(profile.size());
  for (const RateSegment& s : profile) {
    out.put<Seconds>(s.start);
    out.put<Seconds>(s.end);
    out.put<BitsPerSecond>(s.rate);
  }
  config_.journal->append("vc", id, journal_buffer_);
}

std::size_t Idc::recover_from_journal() {
  GRIDVC_PROF_ZONE("recovery.idc_replay");
  GRIDVC_REQUIRE(config_.journal != nullptr, "recover_from_journal needs a journal");
  GRIDVC_REQUIRE(entries_.empty(), "recover_from_journal on a non-empty IDC");
  const Seconds now = sim_.now();
  std::size_t restored = 0;
  std::size_t dropped = 0;
  for (const recovery::JournalRecord& rec : config_.journal->replay("vc")) {
    recovery::RecordReader in(rec.payload, "malformed vc journal payload");
    ReservationRequest request;
    request.src = in.get<net::NodeId>();
    request.dst = in.get<net::NodeId>();
    request.bandwidth = in.get<BitsPerSecond>();
    request.start_time = in.get<Seconds>();
    request.end_time = in.get<Seconds>();
    const Seconds activation = in.get<Seconds>();
    request.malleable = in.flag();
    request.max_bandwidth = in.get<BitsPerSecond>();
    std::vector<RateSegment> profile(in.count(3 * sizeof(double)));
    for (RateSegment& s : profile) {
      s.start = in.get<Seconds>();
      s.end = in.get<Seconds>();
      s.rate = in.get<BitsPerSecond>();
    }
    in.finish();
    next_id_ = std::max(next_id_, rec.key + 1);
    // Expiry is the *booked* end — a shaped circuit delivering its volume
    // early expires with its profile. The boundary is exact: a window
    // with zero remaining seconds at recovery is expired (rebooking it
    // would create a zero-length booking), so it tombstones.
    const Seconds expiry = profile.empty() ? request.end_time : profile.back().end;
    if (expiry <= now) {
      // The window ran out while the IDC was down; nothing to restore.
      config_.journal->tombstone("vc", rec.key);
      ++dropped;
      continue;
    }
    Seconds start = 0.0;
    if (!profile.empty()) {
      // Rebook the remaining *shaped* window.
      std::vector<RateSegment> clipped = remaining_profile(profile, now);
      if (!paths_.shortest(request.src, request.dst, path_) ||
          !calendar_.fits(path_, clipped)) {
        config_.journal->tombstone("vc", rec.key);
        ++dropped;
        continue;
      }
      profile = std::move(clipped);
      start = profile.front().start;
    } else {
      // Rebook the *remaining* window: an already-active circuit restarts
      // from now, a future reservation keeps its original activation.
      start = std::max(now, activation);
      if (!paths_.compute(request.src, request.dst, request.bandwidth, start,
                          request.end_time, path_)) {
        // Topology/calendar moved on while we were down; the reservation
        // can no longer be honored.
        config_.journal->tombstone("vc", rec.key);
        ++dropped;
        continue;
      }
    }
    Entry& entry = new_entry(rec.key);
    entry.circuit.request = request;
    entry.circuit.path.swap(path_);
    entry.circuit.profile = std::move(profile);
    entry.booking =
        entry.circuit.profile.empty()
            ? calendar_.book(entry.circuit.path, start, request.end_time, request.bandwidth)
            : calendar_.book(entry.circuit.path, entry.circuit.profile);
    entry.activation = start;
    const std::uint64_t id = rec.key;
    entry.activate_event = sim_.schedule_at(start, [this, id] { activate(id); });
    ++restored;
  }
  stats_.recovered += restored;
  sync_calendar_gauge();
  // aux=1 tags the IDC's replay (aux=0 is the transfer service's).
  sim_.obs().emit({now, obs::TraceEventType::kJournalReplay,
                   static_cast<std::uint64_t>(restored), 1,
                   static_cast<double>(dropped), 0.0});
  return restored;
}

const Circuit& Idc::circuit(std::uint64_t circuit_id) const {
  const Entry* const entry = entries_.find(circuit_id);
  GRIDVC_REQUIRE(entry != nullptr, "lookup of a circuit that is not live");
  return entry->circuit;
}

}  // namespace gridvc::vc
