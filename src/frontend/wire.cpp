#include "frontend/wire.hpp"

#include <climits>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace gridvc::frontend {

namespace {

std::string err(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + message + "\"}";
}

/// A JSON number that is a whole number in [lo, hi]. Checked before any
/// cast: a cast of 1.5 truncates and a cast of 1e300 is undefined.
bool whole_in(double v, double lo, double hi) {
  return v >= lo && v <= hi && std::trunc(v) == v;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

const char* ticket_state_name(TicketState state) {
  switch (state) {
    case TicketState::kQueued: return "queued";
    case TicketState::kDispatched: return "dispatched";
    case TicketState::kDone: return "done";
    case TicketState::kShed: return "shed";
    case TicketState::kCancelled: return "cancelled";
  }
  return "unknown";
}

const char* task_state_name(gridftp::TaskState state) {
  switch (state) {
    case gridftp::TaskState::kQueued: return "queued";
    case gridftp::TaskState::kActive: return "active";
    case gridftp::TaskState::kSucceeded: return "succeeded";
    case gridftp::TaskState::kCancelled: return "cancelled";
    case gridftp::TaskState::kShed: return "shed";
  }
  return "unknown";
}

WireResult handle_wire_line(WireContext& ctx, const std::string& line) {
  WireResult out;
  try {
    const Json req = parse_json(line);
    if (req.type != Json::Type::kObject) {
      out.response = err("request must be a JSON object");
      return out;
    }
    const std::string op = req.string_at("op");
    std::ostringstream res;

    if (op == "ping") {
      res << "{\"ok\":true,\"time\":" << fmt_double(ctx.sim.now()) << "}";
    } else if (op == "connect") {
      const std::uint64_t session = ctx.front.connect(req.string_at("tenant"));
      out.opened_session = session;
      res << "{\"ok\":true,\"session\":" << session << "}";
    } else if (op == "disconnect") {
      const std::uint64_t session = req.uint64_at("session");
      ctx.front.disconnect(session);
      out.closed_session = session;
      res << "{\"ok\":true}";
    } else if (op == "submit") {
      const std::uint64_t session = req.uint64_at("session");
      const Json& files_json = req.at("files");
      if (files_json.type != Json::Type::kArray) {
        out.response = err("field 'files' must be an array of byte sizes");
        return out;
      }
      std::vector<Bytes> files;
      files.reserve(files_json.array.size());
      // Up to 2^53 every whole byte count is exact in a double.
      constexpr double kMaxFileBytes = 9007199254740992.0;
      for (const Json& f : files_json.array) {
        if (f.type != Json::Type::kNumber || !whole_in(f.number, 1.0, kMaxFileBytes)) {
          out.response = err("files entries must be whole byte counts in [1, 2^53]");
          return out;
        }
        files.push_back(static_cast<Bytes>(f.number));
      }
      TicketOptions opts;
      if (req.get("priority") != nullptr) {
        const double priority = req.number_at("priority");
        if (!whole_in(priority, INT_MIN, INT_MAX)) {
          out.response = err("field 'priority' must be a whole number in int range");
          return out;
        }
        opts.priority = static_cast<int>(priority);
      }
      if (req.get("deadline") != nullptr) {
        opts.deadline = req.number_at("deadline");
      }
      const std::string key =
          req.get("key") != nullptr ? req.string_at("key") : "";
      const std::string label =
          req.get("label") != nullptr ? req.string_at("label") : "wire";
      const SubmitResult r = ctx.front.submit(
          session, label, std::move(files), ctx.transfer_template, opts, key);
      if (r.accepted) {
        res << "{\"ok\":true,\"ticket\":" << r.ticket;
        if (r.duplicate) res << ",\"duplicate\":true";
        res << "}";
      } else {
        res << "{\"ok\":false,\"rejected\":true,\"reason\":\""
            << reject_reason_name(r.reason)
            << "\",\"retry_after\":" << fmt_double(r.retry_after) << "}";
      }
    } else if (op == "poll") {
      const TicketStatus st =
          ctx.front.poll(req.uint64_at("session"), req.uint64_at("ticket"));
      res << "{\"ok\":true,\"state\":\"" << ticket_state_name(st.state)
          << "\",\"bytes_total\":" << st.bytes_total
          << ",\"bytes_done\":" << st.bytes_done;
      if (st.state == TicketState::kDone) {
        res << ",\"task_state\":\"" << task_state_name(st.task_state) << "\"";
      }
      res << "}";
    } else if (op == "cancel") {
      const bool changed =
          ctx.front.cancel(req.uint64_at("session"), req.uint64_at("ticket"));
      res << "{\"ok\":true,\"cancelled\":" << (changed ? "true" : "false")
          << "}";
    } else if (op == "stats") {
      const TenantStats st = ctx.front.tenant_stats(req.string_at("tenant"));
      res << "{\"ok\":true,\"submitted\":" << st.submitted
          << ",\"accepted\":" << st.accepted << ",\"rejected\":" << st.rejected
          << ",\"shed\":" << st.shed << ",\"dispatched\":" << st.dispatched
          << ",\"completed\":" << st.completed << ",\"queued\":" << st.queued
          << ",\"queued_bytes\":" << st.queued_bytes
          << ",\"in_flight\":" << st.in_flight << "}";
    } else {
      out.response = err("unknown op '" + op + "'");
      return out;
    }
    out.response = res.str();
  } catch (const std::exception& e) {
    out.response = err(e.what());
    out.opened_session.reset();
    out.closed_session.reset();
  }
  return out;
}

}  // namespace gridvc::frontend
