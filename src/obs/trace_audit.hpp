// Trace audit: the one fold of a trace stream.
//
// gridvc-trace-check, every chaos replication and gridvc-analyze --trace
// read a run's trace through a TraceAudit, which folds each event once
// into
//
//   - a per-type event count;
//   - per-transfer and per-circuit timelines: each transfer's submit ->
//     start -> finish with queue-wait attribution, each circuit's
//     request -> grant -> activate -> release with setup-delay
//     attribution. This is the "why was this transfer slow / this
//     circuit rejected" query the paper answers from GridFTP logs and
//     SNMP counters, asked of our own runs;
//   - the lifecycle rules: one table (trace_audit.cpp) of the events
//     that open an entity, close it, or require it open, read by one
//     interpreter. Each entity kind says whether a second open or a
//     close with nothing open breaks a rule; every entity must be
//     closed at end of trace. Timestamps never go backwards.
//
// As a TraceSink it passes each event on to an optional tee, so a run
// is audited while its trace is written elsewhere.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/id_slab.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"

namespace gridvc::obs {

struct TransferTimeline {
  std::uint64_t id = 0;
  bool submitted = false, started = false, finished = false;
  Seconds submit_time = 0.0;
  Seconds start_time = 0.0;   ///< first bytes on the wire
  Seconds finish_time = 0.0;
  Seconds queue_wait = 0.0;   ///< submit -> start (slow-start ramp + service queue)
  Bytes bytes = 0;            ///< size transfer_submitted reports
  Bytes delivered = 0;        ///< size transfer_finished reports
  std::uint64_t stripes = 0;
  std::uint64_t streams = 0;
  std::uint64_t stripes_completed = 0;
  std::uint64_t retries = 0;
  std::uint64_t aborts = 0;        ///< attempts killed by a fault
  bool permanently_failed = false; ///< gave up after too many aborts
  /// An abort with no retry, finish or permanent-failure record after
  /// it at end of trace (set by TraceAudit::finish).
  bool abort_open = false;

  Seconds duration() const { return finished ? finish_time - submit_time : 0.0; }
  bool complete() const { return submitted && started && finished; }
};

struct CircuitTimeline {
  std::uint64_t id = 0;
  bool requested = false, granted = false, rejected = false;
  bool activated = false, released = false, cancelled = false;
  bool failed = false;             ///< lost its path mid-lifetime (kVcFailed)
  Seconds request_time = 0.0;
  Seconds activate_time = 0.0;
  Seconds release_time = 0.0;
  Seconds fail_time = 0.0;
  Seconds predicted_setup_delay = 0.0;  ///< grant-time estimate
  Seconds setup_delay = 0.0;            ///< observed request -> active
  std::uint64_t reject_reason = 0;      ///< vc::RejectReason as integer
  BitsPerSecond bandwidth = 0.0;
};

/// A broken lifecycle rule. `line` is the 1-based position of the
/// offending event in the stream, which is its line in a JSONL trace
/// with no blank lines; 0 for a rule checked at end of trace.
struct TraceViolation {
  std::uint64_t line = 0;
  std::string message;
};

class TraceAudit final : public TraceSink {
 public:
  /// `tee`, when set, receives every event after the audit; it must
  /// outlive the audit.
  explicit TraceAudit(TraceSink* tee = nullptr);
  TraceAudit(const TraceAudit&) = delete;
  TraceAudit& operator=(const TraceAudit&) = delete;

  /// Fold one event at stream position total() + 1, then tee it.
  void emit(const TraceEvent& event) override;
  /// Fold one event that a trace file holds at `line` (>= 1).
  void fold(const TraceEvent& event, std::uint64_t line);
  /// Check the end-of-trace rules: the trace has events, and no entity
  /// is still open. Call once, after the last event.
  void finish();

  std::uint64_t total() const { return total_; }
  std::uint64_t count(TraceEventType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }
  /// Timelines by id, iterated in id order; ids absent from the trace
  /// have no entry. Emitters number ids in increasing order, so a new
  /// id appends; one below the largest so far shifts the sorted index.
  const IdSlab<std::uint64_t, TransferTimeline>& transfers() const { return transfers_; }
  const IdSlab<std::uint64_t, CircuitTimeline>& circuits() const { return circuits_; }
  /// Broken rules, in the order they were found.
  const std::vector<TraceViolation>& violations() const { return violations_; }

 private:
  void fold_timelines(const TraceEvent& event);
  void check_rules(const TraceEvent& event, std::uint64_t line);

  TraceSink* tee_;
  std::uint64_t total_ = 0;
  Seconds last_time_ = 0.0;
  std::array<std::uint64_t, kTraceEventTypeCount> counts_{};
  IdSlab<std::uint64_t, TransferTimeline> transfers_;
  IdSlab<std::uint64_t, CircuitTimeline> circuits_;
  /// The records the last transfer and circuit events folded into.
  TransferTimeline* last_transfer_ = nullptr;
  CircuitTimeline* last_circuit_ = nullptr;
  /// The entities of one kind: key -> line that opened it, 0 once
  /// closed. Entries stay, so an entity costs one record however often
  /// it reopens.
  struct OpenSet {
    IdSlab<std::uint64_t, std::uint64_t> since;
    std::uint64_t open = 0;  ///< entries with a nonzero line
  };
  std::vector<OpenSet> entities_;  ///< indexed by entity kind
  std::vector<TraceViolation> violations_;
};

}  // namespace gridvc::obs
