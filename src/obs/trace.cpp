#include "obs/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"

namespace gridvc::obs {

namespace {

struct NameEntry {
  TraceEventType type;
  const char* name;
};

constexpr NameEntry kNames[] = {
    {TraceEventType::kTransferSubmitted, "transfer_submitted"},
    {TraceEventType::kTransferStarted, "transfer_started"},
    {TraceEventType::kTransferStripeCompleted, "transfer_stripe_completed"},
    {TraceEventType::kTransferRetry, "transfer_retry"},
    {TraceEventType::kTransferFinished, "transfer_finished"},
    {TraceEventType::kTaskSubmitted, "task_submitted"},
    {TraceEventType::kTaskStarted, "task_started"},
    {TraceEventType::kTaskFinished, "task_finished"},
    {TraceEventType::kSessionOpened, "session_opened"},
    {TraceEventType::kSessionClosed, "session_closed"},
    {TraceEventType::kVcRequested, "vc_requested"},
    {TraceEventType::kVcGranted, "vc_granted"},
    {TraceEventType::kVcRejected, "vc_rejected"},
    {TraceEventType::kVcActivated, "vc_activated"},
    {TraceEventType::kVcReleased, "vc_released"},
    {TraceEventType::kVcCancelled, "vc_cancelled"},
    {TraceEventType::kVcFailed, "vc_failed"},
    {TraceEventType::kNetRecompute, "net_recompute"},
    {TraceEventType::kLinkDown, "link_down"},
    {TraceEventType::kLinkUp, "link_up"},
    {TraceEventType::kTransferAborted, "transfer_aborted"},
    {TraceEventType::kServerDown, "server_down"},
    {TraceEventType::kServerUp, "server_up"},
    {TraceEventType::kIdcOutageBegin, "idc_outage_begin"},
    {TraceEventType::kIdcOutageEnd, "idc_outage_end"},
    {TraceEventType::kTaskShed, "task_shed"},
    {TraceEventType::kJournalReplay, "journal_replay"},
    {TraceEventType::kVcSegmentBooked, "vc_segment_booked"},
    {TraceEventType::kVcSegmentRollback, "vc_segment_rollback"},
    {TraceEventType::kFrontSessionOpened, "front_session_opened"},
    {TraceEventType::kFrontSessionClosed, "front_session_closed"},
    {TraceEventType::kFrontSubmit, "front_submit"},
    {TraceEventType::kFrontReject, "front_reject"},
    {TraceEventType::kFrontDispatch, "front_dispatch"},
    {TraceEventType::kFrontShed, "front_shed"},
    {TraceEventType::kFrontCancel, "front_cancel"},
};

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

const char* trace_event_name(TraceEventType type) {
  for (const auto& e : kNames) {
    if (e.type == type) return e.name;
  }
  return "unknown";
}

bool parse_trace_event_name(const std::string& name, TraceEventType& out) {
  for (const auto& e : kNames) {
    if (name == e.name) {
      out = e.type;
      return true;
    }
  }
  return false;
}

void JsonlTraceSink::emit(const TraceEvent& event) {
  out_ << "{\"t\":" << fmt_double(event.time) << ",\"ev\":\""
       << trace_event_name(event.type) << "\",\"id\":" << event.id;
  if (event.aux != 0) out_ << ",\"aux\":" << event.aux;
  if (event.value != 0.0) out_ << ",\"v\":" << fmt_double(event.value);
  if (event.value2 != 0.0) out_ << ",\"v2\":" << fmt_double(event.value2);
  out_ << "}\n";
}

RingBufferTraceSink::RingBufferTraceSink(std::size_t capacity) : capacity_(capacity) {
  GRIDVC_REQUIRE(capacity > 0, "ring buffer capacity must be positive");
  buffer_.reserve(capacity);
}

void RingBufferTraceSink::emit(const TraceEvent& event) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(event);
  } else {
    buffer_[next_] = event;
    next_ = (next_ + 1) % capacity_;
  }
  ++total_;
}

std::vector<TraceEvent> RingBufferTraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(buffer_.size());
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    out.push_back(buffer_[(next_ + i) % buffer_.size()]);
  }
  return out;
}

bool parse_trace_line(const std::string& line, TraceEvent& out) {
  if (trim(line).empty()) return false;  // blank line

  // Strict by design: the schema checker rejects anything the sink would
  // not have written — another shape, an unknown key, a fractional id.
  const Json doc = parse_json(line);
  if (doc.type != Json::Type::kObject) throw ParseError("trace line is not a JSON object");
  for (const auto& member : doc.object) {
    const std::string& key = member.first;
    if (key != "t" && key != "ev" && key != "id" && key != "aux" && key != "v" &&
        key != "v2") {
      throw ParseError("unexpected trace key '" + key + "'");
    }
  }
  TraceEvent event;
  event.time = doc.number_at("t");
  if (!parse_trace_event_name(doc.string_at("ev"), event.type)) {
    throw ParseError("unknown trace event name '" + doc.string_at("ev") + "'");
  }
  event.id = doc.uint64_at("id");
  if (doc.get("aux") != nullptr) event.aux = doc.uint64_at("aux");
  if (doc.get("v") != nullptr) event.value = doc.number_at("v");
  if (doc.get("v2") != nullptr) event.value2 = doc.number_at("v2");
  out = event;
  return true;
}

std::vector<TraceEvent> read_trace_jsonl(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    try {
      TraceEvent e;
      if (parse_trace_line(line, e)) events.push_back(e);
    } catch (const ParseError& err) {
      throw ParseError("trace line " + std::to_string(lineno) + ": " + err.what());
    }
  }
  return events;
}

}  // namespace gridvc::obs
