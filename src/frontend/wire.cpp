#include "frontend/wire.hpp"

#include <sstream>

#include "common/error.hpp"
#include "obs/profile_io.hpp"

namespace gridvc::frontend {

namespace {

std::string err(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + message + "\"}";
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

const obs::Json& field(const obs::Json& req, const std::string& key) {
  const obs::Json* v = req.get(key);
  if (v == nullptr) throw ParseError("missing field '" + key + "'");
  return *v;
}

double num_field(const obs::Json& req, const std::string& key) {
  const obs::Json& v = field(req, key);
  if (v.type != obs::Json::Type::kNumber) {
    throw ParseError("field '" + key + "' must be a number");
  }
  return v.number;
}

std::uint64_t id_field(const obs::Json& req, const std::string& key) {
  return static_cast<std::uint64_t>(num_field(req, key));
}

std::string str_field(const obs::Json& req, const std::string& key) {
  const obs::Json& v = field(req, key);
  if (v.type != obs::Json::Type::kString) {
    throw ParseError("field '" + key + "' must be a string");
  }
  return v.str;
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
    const obs::Json req = obs::parse_json(line);
    if (req.type != obs::Json::Type::kObject) {
      out.response = err("request must be a JSON object");
      return out;
    }
    const std::string op = str_field(req, "op");
    std::ostringstream res;

    if (op == "ping") {
      res << "{\"ok\":true,\"time\":" << fmt_double(ctx.sim.now()) << "}";
    } else if (op == "connect") {
      const std::uint64_t session = ctx.front.connect(str_field(req, "tenant"));
      out.opened_session = session;
      res << "{\"ok\":true,\"session\":" << session << "}";
    } else if (op == "disconnect") {
      const std::uint64_t session = id_field(req, "session");
      ctx.front.disconnect(session);
      out.closed_session = session;
      res << "{\"ok\":true}";
    } else if (op == "submit") {
      const std::uint64_t session = id_field(req, "session");
      const obs::Json& files_json = field(req, "files");
      if (files_json.type != obs::Json::Type::kArray) {
        out.response = err("field 'files' must be an array of byte sizes");
        return out;
      }
      std::vector<Bytes> files;
      files.reserve(files_json.array.size());
      for (const obs::Json& f : files_json.array) {
        if (f.type != obs::Json::Type::kNumber || f.number <= 0) {
          out.response = err("files entries must be positive byte counts");
          return out;
        }
        files.push_back(static_cast<Bytes>(f.number));
      }
      TicketOptions opts;
      if (req.get("priority") != nullptr) {
        opts.priority = static_cast<int>(num_field(req, "priority"));
      }
      if (req.get("deadline") != nullptr) {
        opts.deadline = num_field(req, "deadline");
      }
      const std::string key =
          req.get("key") != nullptr ? str_field(req, "key") : "";
      const std::string label =
          req.get("label") != nullptr ? str_field(req, "label") : "wire";
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
          ctx.front.poll(id_field(req, "session"), id_field(req, "ticket"));
      res << "{\"ok\":true,\"state\":\"" << ticket_state_name(st.state)
          << "\",\"bytes_total\":" << st.bytes_total
          << ",\"bytes_done\":" << st.bytes_done;
      if (st.state == TicketState::kDone) {
        res << ",\"task_state\":\"" << task_state_name(st.task_state) << "\"";
      }
      res << "}";
    } else if (op == "cancel") {
      const bool changed =
          ctx.front.cancel(id_field(req, "session"), id_field(req, "ticket"));
      res << "{\"ok\":true,\"cancelled\":" << (changed ? "true" : "false")
          << "}";
    } else if (op == "stats") {
      const TenantStats st = ctx.front.tenant_stats(str_field(req, "tenant"));
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
