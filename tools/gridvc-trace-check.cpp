// gridvc-trace-check: schema and lifecycle validator for JSONL trace files.
//
//   gridvc-trace-check FILE.jsonl
//
// Verifies that every line is a flat JSON object the trace parser
// accepts (required keys t/ev/id, known event names, no trailing junk),
// then feeds the events to obs::TraceAudit, which checks the lifecycle
// rules every chaos replication is also held to: timestamps never go
// backwards, and its rule table pairs
//   - a transfer_aborted with v2=0 (non-terminal) with a later
//     transfer_retry, transfer_finished or terminal abort of the same
//     transfer — an abort nobody resolves is a lost transfer;
//   - server_down with server_up per server id;
//   - idc_outage_begin with idc_outage_end;
//   - front_session_opened with front_session_closed per session id,
//     and front_submit/front_reject may only name an open session;
//   - each front_submit (accepted ticket) with exactly one
//     front_dispatch, front_shed or front_cancel.
// A second open or a close with nothing open breaks the rule (except
// for aborts), and so does anything still open at end of trace.
//
// Exits 0 with a per-event-type census on success, 1 on the first
// violation (with the offending line number), 2 on usage errors.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "obs/trace_audit.hpp"

using namespace gridvc;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s FILE.jsonl\n", argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  obs::TraceAudit audit;
  std::string line;
  std::size_t line_number = 0;
  while (audit.violations().empty() && std::getline(in, line)) {
    ++line_number;
    obs::TraceEvent event;
    try {
      if (!obs::parse_trace_line(line, event)) continue;  // blank line
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), line_number, e.what());
      return 1;
    }
    audit.fold(event, line_number);
  }
  if (audit.violations().empty()) audit.finish();
  if (!audit.violations().empty()) {
    const obs::TraceViolation& v = audit.violations().front();
    if (v.line != 0) {
      std::fprintf(stderr, "%s:%llu: %s\n", path.c_str(),
                   static_cast<unsigned long long>(v.line), v.message.c_str());
    } else {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), v.message.c_str());
    }
    return 1;
  }

  std::map<std::string, std::uint64_t> census;  // by event name
  for (std::size_t t = 0; t < obs::kTraceEventTypeCount; ++t) {
    const auto type = static_cast<obs::TraceEventType>(t);
    if (audit.count(type) != 0) census[obs::trace_event_name(type)] = audit.count(type);
  }
  std::printf("%s: OK, %llu events, %zu types\n", path.c_str(),
              static_cast<unsigned long long>(audit.total()), census.size());
  for (const auto& [name, count] : census) {
    std::printf("  %-24s %llu\n", name.c_str(), static_cast<unsigned long long>(count));
  }
  return 0;
}
