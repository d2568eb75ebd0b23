// Newline-delimited JSON wire protocol for the admission daemon.
//
// One request object per line, one response object per line, no framing
// beyond '\n'. The vocabulary mirrors the FrontEnd API:
//
//   {"op":"connect","tenant":"alice"}
//     -> {"ok":true,"session":1}
//   {"op":"submit","session":1,"label":"job","files":[1048576,2097152],
//    "priority":3,"deadline":0,"key":"retry-token"}
//     -> {"ok":true,"ticket":7}
//     -> {"ok":true,"ticket":7,"duplicate":true}          (idempotent repeat)
//     -> {"ok":false,"rejected":true,"reason":"rate_limited",
//         "retry_after":1.5}                              (admission refusal)
//   {"op":"poll","session":1,"ticket":7}
//     -> {"ok":true,"state":"dispatched","bytes_total":...,"bytes_done":...}
//   {"op":"cancel","session":1,"ticket":7} -> {"ok":true,"cancelled":true}
//   {"op":"disconnect","session":1}        -> {"ok":true}
//   {"op":"stats","tenant":"alice"}        -> {"ok":true,"accepted":...}
//   {"op":"ping"}                          -> {"ok":true,"time":<sim now>}
//
// Structural errors (bad JSON, unknown op, missing field) and domain
// errors (unknown session/ticket/tenant) both come back as
// {"ok":false,"error":"<message>"} — a refusal by the admission policy
// is not an error, it is a negative SubmitResult.
//
// Parsing reuses the strict common/json reader; responses are emitted by
// hand as flat objects. Their only free text is an error message, which
// may quote the request (an unknown op or tenant, a parse error), so it
// goes through common/json's write_json_string.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "frontend/admission.hpp"
#include "gridftp/transfer_engine.hpp"

namespace gridvc::frontend {

/// Everything a wire request needs to execute. The transfer template
/// (endpoints, parallelism) is server configuration — clients name only
/// byte sizes, never endpoints.
struct WireContext {
  FrontEnd& front;
  sim::Simulator& sim;
  gridftp::TransferSpec transfer_template;
};

/// Outcome of one request line. The session bookkeeping fields let the
/// daemon maintain its connection -> sessions map (so a dropped
/// connection can disconnect what it opened) without parsing its own
/// responses.
struct WireResult {
  std::string response;  ///< one JSON object, no trailing newline
  std::optional<std::uint64_t> opened_session;
  std::optional<std::uint64_t> closed_session;
};

/// Execute one request line against the front-end. Never throws: every
/// failure becomes an {"ok":false,...} response.
WireResult handle_wire_line(WireContext& ctx, const std::string& line);

const char* ticket_state_name(TicketState state);
const char* task_state_name(gridftp::TaskState state);

}  // namespace gridvc::frontend
