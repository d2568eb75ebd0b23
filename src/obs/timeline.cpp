#include "obs/timeline.hpp"

namespace gridvc::obs {

std::size_t Timelines::finished_transfers() const {
  std::size_t n = 0;
  for (const auto& [id, t] : transfers) {
    if (t.finished) ++n;
  }
  return n;
}

Timelines build_timelines(const std::vector<TraceEvent>& events) {
  Timelines out;
  for (const TraceEvent& e : events) {
    switch (e.type) {
      case TraceEventType::kTransferSubmitted: {
        TransferTimeline& t = out.transfers[e.id];
        t.id = e.id;
        t.submitted = true;
        t.submit_time = e.time;
        t.bytes = static_cast<Bytes>(e.value);
        t.stripes = e.aux;
        t.streams = static_cast<std::uint64_t>(e.value2);
        break;
      }
      case TraceEventType::kTransferStarted: {
        TransferTimeline& t = out.transfers[e.id];
        t.id = e.id;
        t.started = true;
        t.start_time = e.time;
        t.queue_wait = e.value;
        break;
      }
      case TraceEventType::kTransferStripeCompleted: {
        TransferTimeline& t = out.transfers[e.id];
        t.id = e.id;
        ++t.stripes_completed;
        break;
      }
      case TraceEventType::kTransferRetry: {
        TransferTimeline& t = out.transfers[e.id];
        t.id = e.id;
        ++t.retries;
        break;
      }
      case TraceEventType::kTransferFinished: {
        TransferTimeline& t = out.transfers[e.id];
        t.id = e.id;
        t.finished = true;
        t.finish_time = e.time;
        if (t.bytes == 0) t.bytes = static_cast<Bytes>(e.value2);
        break;
      }
      case TraceEventType::kVcRequested: {
        CircuitTimeline& c = out.circuits[e.id];
        c.id = e.id;
        c.requested = true;
        c.request_time = e.time;
        c.bandwidth = e.value;
        break;
      }
      case TraceEventType::kVcGranted: {
        CircuitTimeline& c = out.circuits[e.id];
        c.id = e.id;
        c.granted = true;
        c.predicted_setup_delay = e.value;
        break;
      }
      case TraceEventType::kVcRejected: {
        CircuitTimeline& c = out.circuits[e.id];
        c.id = e.id;
        c.rejected = true;
        c.reject_reason = e.aux;
        break;
      }
      case TraceEventType::kVcActivated: {
        CircuitTimeline& c = out.circuits[e.id];
        c.id = e.id;
        c.activated = true;
        c.activate_time = e.time;
        c.setup_delay = e.value;
        break;
      }
      case TraceEventType::kVcReleased: {
        CircuitTimeline& c = out.circuits[e.id];
        c.id = e.id;
        c.released = true;
        c.release_time = e.time;
        break;
      }
      case TraceEventType::kVcCancelled: {
        CircuitTimeline& c = out.circuits[e.id];
        c.id = e.id;
        c.cancelled = true;
        break;
      }
      case TraceEventType::kVcFailed: {
        CircuitTimeline& c = out.circuits[e.id];
        c.id = e.id;
        c.failed = true;
        c.fail_time = e.time;
        break;
      }
      case TraceEventType::kTransferAborted: {
        TransferTimeline& t = out.transfers[e.id];
        t.id = e.id;
        ++t.aborts;
        if (e.value2 != 0.0) t.permanently_failed = true;
        break;
      }
      case TraceEventType::kTaskSubmitted:
      case TraceEventType::kTaskStarted:
      case TraceEventType::kTaskFinished:
      case TraceEventType::kSessionOpened:
      case TraceEventType::kSessionClosed:
      case TraceEventType::kNetRecompute:
      case TraceEventType::kLinkDown:
      case TraceEventType::kLinkUp:
      case TraceEventType::kServerDown:
      case TraceEventType::kServerUp:
      case TraceEventType::kIdcOutageBegin:
      case TraceEventType::kIdcOutageEnd:
      case TraceEventType::kTaskShed:
      case TraceEventType::kJournalReplay:
      case TraceEventType::kFrontSessionOpened:
      case TraceEventType::kFrontSessionClosed:
      case TraceEventType::kFrontSubmit:
      case TraceEventType::kFrontReject:
      case TraceEventType::kFrontDispatch:
      case TraceEventType::kFrontShed:
      case TraceEventType::kFrontCancel:
        break;  // not part of the per-transfer/per-circuit timelines
    }
  }
  return out;
}

}  // namespace gridvc::obs
