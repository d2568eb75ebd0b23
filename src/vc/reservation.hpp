// Reservation request/record types of the IDC. Field names mirror the
// OSCARS createReservation message described in §IV: startTime, endTime,
// bandwidth, and circuit endpoints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "net/topology.hpp"

namespace gridvc::vc {

/// One constant-rate step of a shaped (malleable) reservation. A shaped
/// profile is a time-ascending, non-overlapping sequence of these;
/// gaps between segments mean "no guarantee in force".
struct RateSegment {
  Seconds start = 0.0;
  Seconds end = 0.0;
  BitsPerSecond rate = 0.0;

  bool operator==(const RateSegment&) const = default;
};

/// Total volume (bits) a stepwise profile delivers.
inline double profile_volume(const std::vector<RateSegment>& profile) {
  double bits = 0.0;
  for (const RateSegment& s : profile) bits += s.rate * (s.end - s.start);
  return bits;
}

/// How circuit provisioning is triggered (§IV).
enum class SignalingMode : std::uint8_t {
  /// "automatic signaling": the IDC batches provisioning requests that
  /// start in the next minute and sends them to the ingress router in
  /// batch mode — a request for immediate use therefore waits for the
  /// next batch boundary (the "minimum 1-min VC setup delay").
  kBatchedAutomatic,
  /// Hypothetical hardware-assisted signaling: per-request setup after a
  /// fixed processing + propagation delay (the paper's 50 ms scenario,
  /// citing [22]).
  kImmediate,
};

/// A createReservation message.
struct ReservationRequest {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  BitsPerSecond bandwidth = 0.0;
  Seconds start_time = 0.0;  ///< requested circuit start (absolute sim time)
  Seconds end_time = 0.0;    ///< requested circuit end
  std::string description;   ///< free-form, for logs
  /// Marks a resubmission of a request the IDC already rejected (e.g. the
  /// same demand retried with lower bandwidth or a shifted window). The
  /// IDC books a retried rejection under Stats::rejected_retries instead
  /// of the per-reason counters, so one blocked demand never counts as
  /// two independent rejections in blocking-probability studies.
  bool is_retry = false;
  /// Malleable (flexible) reservation per Chen & Primet: the request is
  /// really a *volume* demand — bandwidth x booked window — and the IDC
  /// may reshape how that volume is delivered as a stepwise rate profile
  /// inside the window, instead of rejecting when the flat rate does not
  /// fit. `bandwidth` then reads as the preferred flat rate; any request
  /// a fixed-window scheduler admits, a malleable one admits too (the
  /// flat shape is always among the candidates).
  bool malleable = false;
  /// Cap on any single shaped step of a malleable reservation. <= 0
  /// means only link headroom caps the steps; a positive value must be
  /// >= bandwidth (a cap below the preferred rate could not even carry
  /// the flat shape and is rejected as invalid).
  BitsPerSecond max_bandwidth = 0.0;
};

enum class CircuitState : std::uint8_t {
  kScheduled,   ///< accepted, waiting for provisioning
  kSettingUp,   ///< provisioning messages in flight
  kActive,      ///< data plane configured; rate guarantee in force
  kReleased,    ///< torn down (end reached or cancelled after activation)
  kCancelled,   ///< cancelled before activation
  kFailed,      ///< a link on the path died while active; guarantee lost
};

/// An accepted reservation and its circuit lifecycle record.
struct Circuit {
  std::uint64_t id = 0;
  ReservationRequest request;
  net::Path path;            ///< explicit path selected by the controller
  CircuitState state = CircuitState::kScheduled;
  Seconds provision_started = 0.0;  ///< when setup signaling began
  Seconds active_at = 0.0;          ///< when the guarantee took effect (last activation)
  Seconds released_at = 0.0;
  Seconds failed_at = 0.0;          ///< when the path died (kFailed and after)

  /// Shaped stepwise rate profile in force. Empty for fixed-window
  /// circuits (the guarantee is flat `request.bandwidth` over the booked
  /// window); non-empty only when the IDC reshaped a malleable request.
  /// Segments are time-ascending and non-overlapping; the data plane
  /// should follow rate_at().
  std::vector<RateSegment> profile;

  /// Rate the data plane should enforce at instant `t`:
  /// request.bandwidth when the profile is empty, else the rate of the
  /// segment containing `t` (0 in gaps and outside the profile).
  BitsPerSecond rate_at(Seconds t) const {
    if (profile.empty()) return request.bandwidth;
    for (const RateSegment& s : profile) {
      if (t < s.start) break;
      if (t < s.end) return s.rate;
    }
    return 0.0;
  }

  /// Observed setup delay (active_at - the time the user asked for the
  /// circuit to be usable). Meaningful once kActive.
  Seconds setup_delay() const { return active_at - request.start_time; }
};

/// Why a reservation was rejected.
enum class RejectReason : std::uint8_t {
  kNoRoute,          ///< endpoints not connected by reservable links
  kInsufficientBandwidth,  ///< no path with enough calendar headroom
  kInvalidRequest,   ///< malformed window or rate
  /// The IDC itself is unreachable (control-plane outage): the request
  /// fails fast without path computation. Not an admission verdict, so it
  /// is excluded from blocking-probability statistics.
  kControlPlaneDown,
};

/// Stable short name of a reason ("no-route", ...), as trace tools print it.
inline const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNoRoute: return "no-route";
    case RejectReason::kInsufficientBandwidth: return "no-bandwidth";
    case RejectReason::kInvalidRequest: return "invalid";
    case RejectReason::kControlPlaneDown: return "control-plane-down";
  }
  return "unknown";
}

}  // namespace gridvc::vc
