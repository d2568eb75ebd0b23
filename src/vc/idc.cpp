#include "vc/idc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace gridvc::vc {

namespace {

// A lifecycle callback may tear down / retire the very circuit it is
// invoked for, which destroys the std::function mid-execution and
// invalidates the entry's Circuit. Copy both to locals first.
void invoke_callback(const Idc::CircuitFn& fn, const Circuit& circuit) {
  if (!fn) return;
  const Idc::CircuitFn fn_copy = fn;
  const Circuit snapshot = circuit;
  fn_copy(snapshot);
}

}  // namespace

Idc::Idc(sim::Simulator& sim, const net::Topology& topo, IdcConfig config)
    : sim_(sim),
      topo_(topo),
      config_(config),
      calendar_(topo, config.reservable_fraction),
      paths_(topo, calendar_, [this](net::LinkId l) { return !failed_links_.contains(l); }),
      breaker_(config.breaker) {
  GRIDVC_REQUIRE(config_.terminal_capacity >= 1, "terminal capacity must be >= 1");
  GRIDVC_REQUIRE(config_.batch_interval > 0.0, "batch interval must be positive");
  GRIDVC_REQUIRE(config_.immediate_setup_delay >= 0.0, "negative signaling delay");
  GRIDVC_REQUIRE(config_.resignal_backoff > 0.0, "resignal backoff must be positive");
  GRIDVC_REQUIRE(config_.resignal_backoff_multiplier >= 1.0,
                 "resignal backoff multiplier must be >= 1");
  GRIDVC_REQUIRE(config_.max_resignal_attempts >= 1,
                 "need at least one resignal attempt");

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
      const Seconds earliest = submit_time + config_.batch_interval;
      if (start_time >= earliest) {
        // Advance reservation: the IDC provisions just before startTime.
        return start_time;
      }
      const double k = std::ceil(earliest / config_.batch_interval);
      return k * config_.batch_interval;
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

  auto path = paths_.compute(request.src, request.dst, request.bandwidth,
                             activation, request.end_time);
  std::vector<RateSegment> profile;  // stays empty for flat admissions
  bool defragmented = false;
  bool rerouted = false;
  if (!path && request.malleable) {
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
    const auto& primary = paths_.shortest(request.src, request.dst);
    if (primary) {
      auto shaped = try_shape(*primary);
      if (shaped) {
        path = primary;
      } else {
        // Reroute-on-rejection: ask path computation for a detour with at
        // least half the preferred rate of flat headroom — a deliberately
        // weaker probe than the admission that just failed — and shape
        // into it before giving up.
        const auto detour = paths_.compute(request.src, request.dst,
                                           request.bandwidth * 0.5, activation,
                                           request.end_time);
        if (detour && *detour != *primary) {
          shaped = try_shape(*detour);
          if (shaped) {
            path = detour;
            rerouted = true;
          }
        }
      }
      if (shaped) profile = std::move(*shaped);
    }
  }
  if (!path) {
    // Distinguish "no connectivity at all" from "connected but full".
    const bool any_route = net::shortest_path(topo_, request.src, request.dst).has_value();
    return reject(any_route ? RejectReason::kInsufficientBandwidth
                            : RejectReason::kNoRoute);
  }

  SubmitResult result;
  Entry entry;
  entry.circuit.id = id;
  entry.circuit.request = request;
  entry.circuit.path = *path;
  entry.circuit.state = CircuitState::kScheduled;
  entry.circuit.profile = profile;
  entry.activation = activation;
  if (profile.empty()) {
    entry.booking = calendar_.book(*path, activation, request.end_time, request.bandwidth);
  } else {
    entry.booking = calendar_.book_profile(*path, profile);
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
  entry.circuit.provision_started = sim_.now();
  const Seconds activate_at = profile.empty() ? activation : profile.front().start;
  entry.activate_event = sim_.schedule_at(activate_at, [this, id] { activate(id); });
  entries_.emplace(id, std::move(entry));
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
  auto& entry = entries_.at(id);
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
  invoke_callback(entry.on_active, entry.circuit);
}

void Idc::release(std::uint64_t id) {
  auto& entry = entries_.at(id);
  entry.circuit.state = CircuitState::kReleased;
  entry.circuit.released_at = sim_.now();
  ++stats_.released;
  // The calendar booking ends at end_time on its own, but release the
  // booking record so active_bookings() reflects live circuits only.
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
  invoke_callback(entry.on_release, entry.circuit);
  retire(id);
}

void Idc::cancel(std::uint64_t circuit_id) {
  const auto it = entries_.find(circuit_id);
  if (it == entries_.end()) {
    // Terminal circuits are past cancellation; truly unknown ids are a
    // caller bug.
    GRIDVC_REQUIRE(terminal_.contains(circuit_id), "cancel of unknown circuit");
    GRIDVC_REQUIRE(false, "cancel after activation; use release_now");
  }
  Entry& entry = it->second;
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
  const auto it = entries_.find(circuit_id);
  if (it == entries_.end()) {
    // Already terminal: the caller's teardown raced the circuit's own
    // lifecycle (end-time release, failure) — nothing left to free.
    GRIDVC_REQUIRE(terminal_.contains(circuit_id), "release_now of unknown circuit");
    return;
  }
  Entry& entry = it->second;
  if (entry.circuit.state == CircuitState::kFailed) {
    // The data plane is already gone and the booking freed; drop any
    // pending re-signal and retire the record.
    retire(circuit_id);
    return;
  }
  GRIDVC_REQUIRE(entry.circuit.state == CircuitState::kActive,
                 "release_now of a circuit that is not active");
  entry.release_event.cancel();
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
  obs.emit({sim_.now(), obs::TraceEventType::kVcReleased, circuit_id, 0,
            entry.circuit.released_at - entry.circuit.active_at,
            entry.circuit.request.bandwidth});
  invoke_callback(entry.on_release, entry.circuit);
  retire(circuit_id);
}

bool Idc::modify_reservation(std::uint64_t circuit_id, BitsPerSecond new_bandwidth,
                             Seconds new_end_time) {
  const auto it = entries_.find(circuit_id);
  GRIDVC_REQUIRE(it != entries_.end(), "modify of unknown circuit");
  Entry& entry = it->second;
  GRIDVC_REQUIRE(entry.circuit.state == CircuitState::kScheduled,
                 "only scheduled reservations can be modified");
  GRIDVC_REQUIRE(new_bandwidth > 0.0, "modified bandwidth must be positive");
  const Seconds activation = entry.activation;
  if (new_end_time <= activation) return false;

  // Re-admit with the old booking out of the way so shrinking always
  // succeeds and growing is checked against true residual capacity.
  calendar_.release(entry.booking);
  const auto reinstate = [&] {
    if (entry.circuit.profile.empty()) {
      entry.booking = calendar_.book(entry.circuit.path, activation,
                                     entry.circuit.request.end_time,
                                     entry.circuit.request.bandwidth);
    } else {
      entry.booking = calendar_.book_profile(entry.circuit.path, entry.circuit.profile);
    }
  };
  const Seconds old_activate_at = entry.circuit.profile.empty()
                                      ? activation
                                      : entry.circuit.profile.front().start;
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
    entry.booking = calendar_.book_profile(entry.circuit.path, new_profile);
  } else {
    reinstate();
    return false;
  }
  entry.circuit.request.bandwidth = new_bandwidth;
  entry.circuit.request.end_time = new_end_time;
  entry.circuit.profile = std::move(new_profile);
  const Seconds new_activate_at = entry.circuit.profile.empty()
                                      ? activation
                                      : entry.circuit.profile.front().start;
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
  for (const auto& [id, entry] : entries_) {
    const Circuit& c = entry.circuit;
    if (c.state != CircuitState::kScheduled && c.state != CircuitState::kActive) continue;
    if (std::find(c.path.begin(), c.path.end(), failed_link) != c.path.end()) {
      affected.push_back(id);
    }
  }

  std::size_t repathed = 0;
  for (const std::uint64_t id : affected) {
    const auto it = entries_.find(id);
    if (it == entries_.end()) continue;  // a callback tore it down meanwhile
    Entry& entry = it->second;
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
      const auto& alt = paths_.shortest(c.request.src, c.request.dst);
      if (alt && calendar_.fits_profile(*alt, c.profile)) {
        c.path = *alt;
        entry.booking = calendar_.book_profile(*alt, c.profile);
        ++repathed;
        sim_.obs().registry().add(id_repathed_);
        continue;
      }
    } else {
      const Seconds start = predicted_activation(sim_.now(), c.request.start_time);
      const auto replacement = paths_.compute(c.request.src, c.request.dst,
                                              c.request.bandwidth, start,
                                              c.request.end_time);
      if (replacement) {
        c.path = *replacement;
        entry.booking =
            calendar_.book(*replacement, start, c.request.end_time, c.request.bandwidth);
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
  invoke_callback(entry.on_failure, c);

  // The callback may have torn the circuit down (release_now retires it).
  const auto it = entries_.find(id);
  if (it == entries_.end() || it->second.circuit.state != CircuitState::kFailed) return;
  if (config_.resignal_on_failure && sim_.now() < booked_end(c)) {
    schedule_resignal(id);
  } else {
    retire(id);
  }
}

void Idc::schedule_resignal(std::uint64_t id) {
  Entry& entry = entries_.at(id);
  ++entry.resignal_attempts;
  const Seconds delay =
      config_.resignal_backoff *
      std::pow(config_.resignal_backoff_multiplier,
               static_cast<double>(entry.resignal_attempts - 1));
  entry.resignal_event = sim_.schedule_in(delay, [this, id] { try_resignal(id); });
}

void Idc::try_resignal(std::uint64_t id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;  // released/retired while waiting
  Entry& entry = it->second;
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
        std::max(now + config_.resignal_backoff, breaker_.reopen_at());
    entry.resignal_event = sim_.schedule_at(retry_at, [this, id] { try_resignal(id); });
    return;
  }
  if (in_outage_) {
    // The probe found the control plane unreachable: a breaker failure,
    // not a path-computation attempt. Retry after the plain backoff; the
    // window-expiry check above bounds the loop.
    breaker_.record_failure(now);
    entry.resignal_event =
        sim_.schedule_in(config_.resignal_backoff, [this, id] { try_resignal(id); });
    return;
  }
  if (!c.profile.empty()) {
    // Shaped circuit: rebook the remaining *shaped* window — segments
    // already delivered stay gone; the straddling segment restarts now.
    std::vector<RateSegment> clipped;
    for (const RateSegment& s : c.profile) {
      if (s.end <= now) continue;
      clipped.push_back({std::max(s.start, now), s.end, s.rate});
    }
    const auto& alt = paths_.shortest(c.request.src, c.request.dst);
    if (!alt || !calendar_.fits_profile(*alt, clipped)) {
      // The control plane answered — that closes the breaker's book even
      // though admission failed for capacity reasons.
      breaker_.record_success(now);
      if (entry.resignal_attempts >= config_.max_resignal_attempts) {
        retire(id);  // give up; the circuit stays failed
        return;
      }
      schedule_resignal(id);
      return;
    }
    breaker_.record_success(now);
    c.path = *alt;
    c.profile = std::move(clipped);
    entry.booking = calendar_.book_profile(c.path, c.profile);
  } else {
    const auto path = paths_.compute(c.request.src, c.request.dst, c.request.bandwidth,
                                     now, c.request.end_time);
    if (!path) {
      // The control plane answered — that closes the breaker's book even
      // though admission failed for capacity reasons.
      breaker_.record_success(now);
      if (entry.resignal_attempts >= config_.max_resignal_attempts) {
        retire(id);  // give up; the circuit stays failed
        return;
      }
      schedule_resignal(id);
      return;
    }
    breaker_.record_success(now);

    // Re-homed: book the remaining window and bring the guarantee back.
    c.path = *path;
    entry.booking = calendar_.book(*path, now, c.request.end_time, c.request.bandwidth);
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
  invoke_callback(entry.on_active, c);
}

void Idc::retire(std::uint64_t id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  it->second.activate_event.cancel();
  it->second.release_event.cancel();
  it->second.resignal_event.cancel();
  terminal_.insert_or_assign(id, std::move(it->second.circuit));
  entries_.erase(it);
  if (config_.journal) config_.journal->tombstone("vc", id);
  while (terminal_.size() > config_.terminal_capacity) {
    terminal_.erase(terminal_.begin());  // ids are monotone: begin() is oldest
  }
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
    bool was_flat = false;
    Seconds flat_start = 0.0, flat_end = 0.0;
    BitsPerSecond flat_rate = 0.0;
    std::vector<RateSegment> segments;  // prior shaped booking
  };
  std::vector<Displaced> displaced;
  for (const auto& [cid, e] : entries_) {  // std::map: ascending id, deterministic
    const Circuit& c = e.circuit;
    if (c.state != CircuitState::kScheduled || !c.request.malleable || e.booking == 0) {
      continue;
    }
    const Seconds b_start = c.profile.empty() ? e.activation : c.profile.front().start;
    if (booked_end(c) <= activation || b_start >= request.end_time) continue;
    bool shares = false;
    for (net::LinkId l : c.path) {
      if (std::find(path.begin(), path.end(), l) != path.end()) {
        shares = true;
        break;
      }
    }
    if (!shares) continue;
    Displaced d;
    d.id = cid;
    d.was_flat = c.profile.empty();
    d.flat_start = b_start;
    d.flat_end = c.request.end_time;
    d.flat_rate = c.request.bandwidth;
    d.segments = c.profile;
    displaced.push_back(std::move(d));
  }
  if (displaced.empty()) return std::nullopt;

  // Phase 1: release every displaced booking, opening the gap.
  for (const Displaced& d : displaced) {
    Entry& e = entries_.at(d.id);
    calendar_.release(e.booking);
    e.booking = 0;
  }

  // All-or-nothing: drop whatever the attempt booked, then reinstate
  // every displaced booking exactly as it was. Integer-kbps calendar
  // arithmetic makes the reinstate byte-exact.
  const auto rollback = [&](std::size_t rebooked, ReservationId probe) {
    for (std::size_t k = 0; k < rebooked; ++k) {
      Entry& e = entries_.at(displaced[k].id);
      calendar_.release(e.booking);
      e.booking = 0;
    }
    if (probe != 0) calendar_.release(probe);
    for (const Displaced& d : displaced) {
      Entry& e = entries_.at(d.id);
      if (d.was_flat) {
        e.booking = calendar_.book(e.circuit.path, d.flat_start, d.flat_end, d.flat_rate);
      } else {
        e.booking = calendar_.book_profile(e.circuit.path, d.segments);
      }
    }
  };

  // Phase 2: shape the new request into the opened gap and hold that
  // capacity with a probe booking while the displaced set re-packs.
  const auto shaped = shape_request(path, request, activation);
  if (!shaped) {
    rollback(0, 0);
    return std::nullopt;
  }
  const ReservationId probe = calendar_.book_profile(path, *shaped);

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
    e.booking = calendar_.book_profile(e.circuit.path, new_profiles[k]);
  }

  // Commit: adopt the reshaped profiles, re-anchor activate events that
  // moved, and re-journal the displaced circuits.
  for (std::size_t k = 0; k < displaced.size(); ++k) {
    Entry& e = entries_.at(displaced[k].id);
    const Seconds old_at = displaced[k].was_flat ? displaced[k].flat_start
                                                 : displaced[k].segments.front().start;
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
  std::ostringstream payload;
  payload.precision(17);
  payload << request.src << ' ' << request.dst << ' ' << request.bandwidth << ' '
          << request.start_time << ' ' << request.end_time << ' ' << activation;
  // Malleable extension (absent in pre-malleable journals; replay treats
  // a 6-field payload as a flat booking): flags, step cap, and the shaped
  // profile so recovery can rebook the remaining *shaped* window.
  payload << ' ' << (request.malleable ? 1 : 0) << ' ' << request.max_bandwidth << ' '
          << profile.size();
  for (const RateSegment& s : profile) {
    payload << ' ' << s.start << ' ' << s.end << ' ' << s.rate;
  }
  config_.journal->append("vc", id, payload.str());
}

std::size_t Idc::recover_from_journal() {
  GRIDVC_PROF_ZONE("recovery.idc_replay");
  GRIDVC_REQUIRE(config_.journal != nullptr, "recover_from_journal needs a journal");
  GRIDVC_REQUIRE(entries_.empty(), "recover_from_journal on a non-empty IDC");
  const Seconds now = sim_.now();
  std::size_t restored = 0;
  std::size_t dropped = 0;
  for (const recovery::JournalRecord& rec : config_.journal->replay("vc")) {
    ReservationRequest request;
    Seconds activation = 0.0;
    std::istringstream in(rec.payload);
    in >> request.src >> request.dst >> request.bandwidth >> request.start_time >>
        request.end_time >> activation;
    GRIDVC_REQUIRE(!in.fail(), "malformed vc journal payload");
    // Malleable extension; a legacy 6-field payload reads as flat.
    int malleable = 0;
    BitsPerSecond max_bandwidth = 0.0;
    std::size_t seg_count = 0;
    std::vector<RateSegment> profile;
    if (in >> malleable >> max_bandwidth >> seg_count) {
      request.malleable = malleable != 0;
      request.max_bandwidth = max_bandwidth;
      profile.resize(seg_count);
      for (RateSegment& s : profile) in >> s.start >> s.end >> s.rate;
      GRIDVC_REQUIRE(!in.fail(), "malformed vc journal payload");
    }
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
    Entry entry;
    entry.circuit.id = rec.key;
    entry.circuit.request = request;
    entry.circuit.state = CircuitState::kScheduled;
    entry.circuit.provision_started = now;
    Seconds start = 0.0;
    if (!profile.empty()) {
      // Rebook the remaining *shaped* window: segments already delivered
      // stay gone; the straddling segment restarts now.
      std::vector<RateSegment> clipped;
      for (const RateSegment& s : profile) {
        if (s.end <= now) continue;
        clipped.push_back({std::max(s.start, now), s.end, s.rate});
      }
      const auto& path = paths_.shortest(request.src, request.dst);
      if (!path || !calendar_.fits_profile(*path, clipped)) {
        config_.journal->tombstone("vc", rec.key);
        ++dropped;
        continue;
      }
      entry.circuit.path = *path;
      entry.circuit.profile = std::move(clipped);
      entry.booking = calendar_.book_profile(entry.circuit.path, entry.circuit.profile);
      start = entry.circuit.profile.front().start;
    } else {
      // Rebook the *remaining* window: an already-active circuit restarts
      // from now, a future reservation keeps its original activation.
      start = std::max(now, activation);
      const auto path = paths_.compute(request.src, request.dst, request.bandwidth, start,
                                       request.end_time);
      if (!path) {
        // Topology/calendar moved on while we were down; the reservation
        // can no longer be honored.
        config_.journal->tombstone("vc", rec.key);
        ++dropped;
        continue;
      }
      entry.circuit.path = *path;
      entry.booking = calendar_.book(*path, start, request.end_time, request.bandwidth);
    }
    entry.activation = start;
    const std::uint64_t id = rec.key;
    entry.activate_event = sim_.schedule_at(start, [this, id] { activate(id); });
    entries_.emplace(id, std::move(entry));
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
  const auto it = entries_.find(circuit_id);
  if (it != entries_.end()) return it->second.circuit;
  const auto term = terminal_.find(circuit_id);
  GRIDVC_REQUIRE(term != terminal_.end(), "lookup of unknown circuit");
  return term->second;
}

}  // namespace gridvc::vc
