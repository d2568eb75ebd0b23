#include "obs/trace_audit.hpp"

#include <bit>
#include <cstdio>
#include <iterator>

namespace gridvc::obs {

namespace {

// ---- the lifecycle rules ---------------------------------------------------
//
// An entity kind and the transitions that move its entities between
// "closed" and "open", written once as data: an explicit state table.
// Every trace consumer checks these rows and no others.

enum Entity : std::uint8_t { kAbortedTransfer, kServer, kIdcOutage, kSession, kTicket };

struct EntityRule {
  const char* name;
  bool singleton;  ///< one entity per trace: its events name no key
  /// A second open while open, or a close with nothing open, breaks a
  /// rule. Every entity still open at end of trace does.
  bool strict;
};

// Indexed by Entity.
constexpr EntityRule kEntities[] = {
    // A later transient abort supersedes an open one, and retries and
    // finishes also follow attempts that never aborted.
    {"aborted transfer", false, false},
    {"server", false, true},
    {"IDC outage", true, true},
    {"session", false, true},
    {"ticket", false, true},
};

enum class Act : std::uint8_t {
  kOpen,
  kClose,
  kRequireOpen,  ///< the event names an entity that must be open
};

/// Which transfer_aborted events a row takes: v2 is 1 on the terminal
/// (permanent-failure) abort.
enum class V2 : std::uint8_t { kAny, kZero, kNonZero };

struct Transition {
  TraceEventType event;
  V2 v2;
  Entity entity;
  Act act;
  bool key_in_aux;  ///< the entity key is the event's aux, not its id
};

// Rows of one event type apply in table order: a front_submit's session
// is checked before its ticket opens.
constexpr Transition kTransitions[] = {
    {TraceEventType::kTransferAborted, V2::kZero, kAbortedTransfer, Act::kOpen, false},
    {TraceEventType::kTransferAborted, V2::kNonZero, kAbortedTransfer, Act::kClose, false},
    {TraceEventType::kTransferRetry, V2::kAny, kAbortedTransfer, Act::kClose, false},
    {TraceEventType::kTransferFinished, V2::kAny, kAbortedTransfer, Act::kClose, false},
    {TraceEventType::kServerDown, V2::kAny, kServer, Act::kOpen, false},
    {TraceEventType::kServerUp, V2::kAny, kServer, Act::kClose, false},
    {TraceEventType::kIdcOutageBegin, V2::kAny, kIdcOutage, Act::kOpen, false},
    {TraceEventType::kIdcOutageEnd, V2::kAny, kIdcOutage, Act::kClose, false},
    {TraceEventType::kFrontSessionOpened, V2::kAny, kSession, Act::kOpen, false},
    {TraceEventType::kFrontSessionClosed, V2::kAny, kSession, Act::kClose, false},
    {TraceEventType::kFrontSubmit, V2::kAny, kSession, Act::kRequireOpen, true},
    {TraceEventType::kFrontReject, V2::kAny, kSession, Act::kRequireOpen, true},
    {TraceEventType::kFrontSubmit, V2::kAny, kTicket, Act::kOpen, false},
    {TraceEventType::kFrontDispatch, V2::kAny, kTicket, Act::kClose, false},
    {TraceEventType::kFrontShed, V2::kAny, kTicket, Act::kClose, false},
    {TraceEventType::kFrontCancel, V2::kAny, kTicket, Act::kClose, false},
};

/// Per event type, a bit per kTransitions row that names it.
constexpr auto kRowsByType = [] {
  static_assert(std::size(kTransitions) <= 32, "row masks are 32 bits");
  std::array<std::uint32_t, kTraceEventTypeCount> rows{};
  for (std::size_t i = 0; i < std::size(kTransitions); ++i) {
    rows[static_cast<std::size_t>(kTransitions[i].event)] |= std::uint32_t{1} << i;
  }
  return rows;
}();

bool takes(V2 v2, double value2) {
  switch (v2) {
    case V2::kZero: return value2 == 0.0;
    case V2::kNonZero: return value2 != 0.0;
    case V2::kAny: break;
  }
  return true;
}

std::string entity_name(Entity entity, std::uint64_t key) {
  const EntityRule& rule = kEntities[entity];
  return rule.singleton ? rule.name : std::string(rule.name) + " " + std::to_string(key);
}

/// The record of `id`, added on its first mention. Records are never
/// erased, so a new one is default-constructed. `last` is the record
/// the previous call returned: one entity's events often come back to
/// back (submit then start, last stripe then finish), and a hit there
/// skips the search. Only this function inserts, so `last` stays valid.
template <typename T>
T& record_of(IdSlab<std::uint64_t, T>& slab, T*& last, std::uint64_t id) {
  if (last != nullptr && last->id == id) return *last;
  if (T* found = slab.find(id)) return *(last = found);
  T& fresh = slab.insert(id);
  fresh.id = id;
  return *(last = &fresh);
}

/// A trace value read back as a byte or stream count: anything that is
/// not a count a uint64 holds reads 0 (the cast would be undefined).
std::uint64_t as_count(double v) {
  return v >= 0.0 && v < 18446744073709551616.0 ? static_cast<std::uint64_t>(v) : 0;
}

}  // namespace

TraceAudit::TraceAudit(TraceSink* tee) : tee_(tee), entities_(std::size(kEntities)) {}

void TraceAudit::emit(const TraceEvent& event) {
  fold(event, total_ + 1);
  if (tee_ != nullptr) tee_->emit(event);
}

void TraceAudit::fold(const TraceEvent& event, std::uint64_t line) {
  if (total_ > 0 && event.time < last_time_) {
    char message[96];
    std::snprintf(message, sizeof(message), "timestamp went backwards (%.9g after %.9g)",
                  event.time, last_time_);
    violations_.push_back({line, message});
  }
  last_time_ = event.time;
  ++total_;
  ++counts_[static_cast<std::size_t>(event.type)];
  fold_timelines(event);
  check_rules(event, line);
}

void TraceAudit::fold_timelines(const TraceEvent& e) {
  const auto transfer = [&]() -> TransferTimeline& {
    return record_of(transfers_, last_transfer_, e.id);
  };
  const auto circuit = [&]() -> CircuitTimeline& {
    return record_of(circuits_, last_circuit_, e.id);
  };
  switch (e.type) {
    case TraceEventType::kTransferSubmitted: {
      TransferTimeline& t = transfer();
      t.submitted = true;
      t.submit_time = e.time;
      t.bytes = as_count(e.value);
      t.stripes = e.aux;
      t.streams = as_count(e.value2);
      break;
    }
    case TraceEventType::kTransferStarted: {
      TransferTimeline& t = transfer();
      t.started = true;
      t.start_time = e.time;
      t.queue_wait = e.value;
      break;
    }
    case TraceEventType::kTransferStripeCompleted:
      ++transfer().stripes_completed;
      break;
    case TraceEventType::kTransferRetry:
      ++transfer().retries;
      break;
    case TraceEventType::kTransferFinished: {
      TransferTimeline& t = transfer();
      t.finished = true;
      t.finish_time = e.time;
      t.delivered = as_count(e.value2);
      break;
    }
    case TraceEventType::kTransferAborted: {
      TransferTimeline& t = transfer();
      ++t.aborts;
      if (e.value2 != 0.0) t.permanently_failed = true;
      break;
    }
    case TraceEventType::kVcRequested: {
      CircuitTimeline& c = circuit();
      c.requested = true;
      c.request_time = e.time;
      c.bandwidth = e.value;
      break;
    }
    case TraceEventType::kVcGranted: {
      CircuitTimeline& c = circuit();
      c.granted = true;
      c.predicted_setup_delay = e.value;
      break;
    }
    case TraceEventType::kVcRejected: {
      CircuitTimeline& c = circuit();
      c.rejected = true;
      c.reject_reason = e.aux;
      break;
    }
    case TraceEventType::kVcActivated: {
      CircuitTimeline& c = circuit();
      c.activated = true;
      c.activate_time = e.time;
      c.setup_delay = e.value;
      break;
    }
    case TraceEventType::kVcReleased: {
      CircuitTimeline& c = circuit();
      c.released = true;
      c.release_time = e.time;
      break;
    }
    case TraceEventType::kVcCancelled:
      circuit().cancelled = true;
      break;
    case TraceEventType::kVcFailed: {
      CircuitTimeline& c = circuit();
      c.failed = true;
      c.fail_time = e.time;
      break;
    }
    default:
      break;  // not part of a transfer's or a circuit's timeline
  }
}

void TraceAudit::check_rules(const TraceEvent& e, std::uint64_t line) {
  for (std::uint32_t rows = kRowsByType[static_cast<std::size_t>(e.type)]; rows != 0;
       rows &= rows - 1) {
    const Transition& row = kTransitions[std::countr_zero(rows)];
    if (!takes(row.v2, e.value2)) continue;
    const EntityRule& rule = kEntities[row.entity];
    const std::uint64_t key = rule.singleton ? 0 : row.key_in_aux ? e.aux : e.id;
    OpenSet& set = entities_[row.entity];
    const auto broken = [&](const std::string& what) {
      violations_.push_back(
          {line, std::string(trace_event_name(e.type)) + ": " + entity_name(row.entity, key) +
                     " " + what});
    };
    // Most closes (every transfer_finished) find nothing of their kind open.
    std::uint64_t* since =
        set.open == 0 && row.act != Act::kOpen ? nullptr : set.since.find(key);
    const bool open = since != nullptr && *since != 0;
    if (row.act == Act::kOpen) {
      if (open && rule.strict) {
        broken("is already open (since line " + std::to_string(*since) + ")");
        continue;
      }
      if (since == nullptr) since = &set.since.insert(key);
      if (!open) ++set.open;
      *since = line;
    } else if (!open) {
      if (row.act == Act::kRequireOpen || rule.strict) broken("is not open");
    } else if (row.act == Act::kClose) {
      *since = 0;
      --set.open;
    }
  }
}

void TraceAudit::finish() {
  if (total_ == 0) violations_.push_back({0, "no events"});
  for (std::uint8_t entity = 0; entity < entities_.size(); ++entity) {
    const OpenSet& set = entities_[entity];
    if (set.open == 0) continue;
    std::uint64_t first_key = 0, first_line = 0;
    set.since.for_each([&](std::uint64_t key, std::uint64_t since) {
      if (since == 0) return;
      if (first_line == 0) {
        first_key = key;
        first_line = since;
      }
      if (entity == kAbortedTransfer) {
        if (TransferTimeline* t = transfers_.find(key)) t->abort_open = true;
      }
    });
    violations_.push_back(
        {0, std::to_string(set.open) + " " + kEntities[entity].name +
                "(s) still open at end of trace (first: " +
                entity_name(static_cast<Entity>(entity), first_key) + ", since line " +
                std::to_string(first_line) + ")"});
  }
}

}  // namespace gridvc::obs
