// Structured sim-time tracing.
//
// Subsystems emit typed TraceEvents (transfer lifecycle, VC lifecycle,
// network recomputes, task and front-end session lifecycles) through
// the Observability context; a TraceSink decides where they go. Two
// sinks are provided: a JSONL writer (one flat JSON object per line,
// timestamps in sim seconds) for post-run analysis and replay through
// gridvc-analyze, and a fixed-capacity ring buffer that keeps a run's
// last N events (tests, benches, and the tail gridvc-chaos --flight-out
// writes for a failing seed).
//
// When no sink is attached, emission is a single branch on a null
// pointer (the untraced baseline bench_perf_micro measures against).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace gridvc::obs {

/// The event taxonomy (see DESIGN.md for the field conventions of each).
enum class TraceEventType : std::uint8_t {
  // gridftp transfer lifecycle
  kTransferSubmitted,
  kTransferStarted,
  kTransferStripeCompleted,
  kTransferRetry,
  kTransferFinished,
  // managed-task lifecycle
  kTaskSubmitted,
  kTaskStarted,
  kTaskFinished,
  // virtual-circuit lifecycle
  kVcRequested,
  kVcGranted,
  kVcRejected,
  kVcActivated,
  kVcReleased,
  kVcCancelled,
  kVcFailed,
  // network layer
  kNetRecompute,
  kLinkDown,
  kLinkUp,
  // failure semantics (gridftp)
  kTransferAborted,
  // process-level faults and recovery
  kServerDown,
  kServerUp,
  kIdcOutageBegin,
  kIdcOutageEnd,
  kTaskShed,
  kJournalReplay,
  // Admission front-end (src/frontend/). Client sessions: id = session
  // id, aux = tenant index (opened) / close reason 0=disconnect
  // 1=idle-reap (closed). Submissions: id = ticket id, aux = session id;
  // front_submit is emitted only for *accepted* submissions (value =
  // bytes, value2 = tenant index), front_reject for refused ones (aux =
  // session, value = retry-after hint, value2 = reason). Every accepted
  // ticket is resolved exactly once by front_dispatch (aux = backend
  // task id, value = queue wait), front_shed (a policy eviction, aux 0), or
  // front_cancel — obs::TraceAudit enforces the lifecycle.
  kFrontSessionOpened,
  kFrontSessionClosed,
  kFrontSubmit,
  kFrontReject,
  kFrontDispatch,
  kFrontShed,
  kFrontCancel,
};

/// Number of distinct event types (array-sizing for per-type counters).
inline constexpr std::size_t kTraceEventTypeCount =
    static_cast<std::size_t>(TraceEventType::kFrontCancel) + 1;

/// Stable wire name ("transfer_submitted", ...).
const char* trace_event_name(TraceEventType type);

/// Inverse of trace_event_name; returns false for unknown names.
bool parse_trace_event_name(const std::string& name, TraceEventType& out);

/// One emitted event. The generic fields keep the struct POD-sized for
/// the ring buffer; per-type meaning is documented in DESIGN.md
/// ("Observability: event taxonomy").
struct TraceEvent {
  Seconds time = 0.0;      ///< sim time of emission (key "t")
  TraceEventType type = TraceEventType::kNetRecompute;  ///< key "ev"
  std::uint64_t id = 0;    ///< subject id: transfer/task/circuit/session ("id")
  std::uint64_t aux = 0;   ///< secondary integer: count, reason, attempt ("aux")
  double value = 0.0;      ///< primary measurement, usually seconds or bytes ("v")
  double value2 = 0.0;     ///< secondary measurement ("v2")
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& event) = 0;
};

/// Writes one flat JSON object per event:
///   {"t":12.5,"ev":"transfer_submitted","id":3,"aux":1,"v":3.2e10,"v2":8}
/// Keys t/ev/id are always present; aux/v/v2 are omitted when zero.
class JsonlTraceSink : public TraceSink {
 public:
  /// The stream must outlive the sink.
  explicit JsonlTraceSink(std::ostream& out) : out_(out) {}
  void emit(const TraceEvent& event) override;

 private:
  std::ostream& out_;
};

/// Keeps the last `capacity` events in emission order.
class RingBufferTraceSink : public TraceSink {
 public:
  explicit RingBufferTraceSink(std::size_t capacity);
  void emit(const TraceEvent& event) override;

  /// Events seen over the sink's lifetime (>= events().size()).
  std::uint64_t total_emitted() const { return total_; }

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const;

 private:
  std::vector<TraceEvent> buffer_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

/// Parse one JSONL trace line back into an event. Throws ParseError on
/// malformed lines, missing required keys (t/ev/id), unknown keys or
/// event names, or an id/aux that is not an integer in [0, 2^64). Blank
/// lines return false.
bool parse_trace_line(const std::string& line, TraceEvent& out);

/// Read a whole JSONL trace stream; throws ParseError with the offending
/// line number on the first malformed line.
std::vector<TraceEvent> read_trace_jsonl(std::istream& in);

}  // namespace gridvc::obs
