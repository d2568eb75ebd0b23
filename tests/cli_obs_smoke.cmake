# Smoke test of the observability pipeline: simulate the managed-vc
# scenario with --metrics-out and --trace-out, schema-check the trace,
# replay it through the analyzer, and verify the metrics snapshot spans
# all four instrumented layers.
set(metrics ${WORKDIR}/obs_smoke.prom)
set(trace ${WORKDIR}/obs_smoke.jsonl)

execute_process(
  COMMAND ${SIMULATE} --scenario managed-vc --tasks 3 --seed 7
          --metrics-out ${metrics} --trace-out ${trace}
  RESULT_VARIABLE sim_rc)
if(NOT sim_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-simulate failed: ${sim_rc}")
endif()

execute_process(
  COMMAND ${TRACECHECK} ${trace}
  OUTPUT_VARIABLE check_out
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-trace-check rejected the trace: ${check_rc}")
endif()
string(FIND "${check_out}" "OK," pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "gridvc-trace-check output missing OK:\n${check_out}")
endif()

# The snapshot must hold >= 20 distinct metrics covering sim, net,
# gridftp, and vc.
file(READ ${metrics} prom)
foreach(prefix "gridvc_sim_" "gridvc_net_" "gridvc_gridftp_" "gridvc_vc_")
  string(FIND "${prom}" "${prefix}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "metrics snapshot missing layer '${prefix}':\n${prom}")
  endif()
endforeach()
string(REGEX MATCHALL "# TYPE gridvc_" types "${prom}")
list(LENGTH types metric_count)
if(metric_count LESS 20)
  message(FATAL_ERROR "expected >= 20 metrics, got ${metric_count}")
endif()

# The run is seeded, so its event and allocator-pass counts are exact.
# The network runs one fair-share pass per callback that changed its
# flows; one pass per flow-set change cost 88 here. A return to that
# moves the pass count, and a change in the event loop the event count.
foreach(pair "gridvc_sim_events_dispatched=54" "gridvc_net_recomputes=49")
  string(REPLACE "=" ";" pair "${pair}")
  list(GET pair 0 name)
  list(GET pair 1 want)
  string(REGEX MATCH "\n${name} [0-9]+\n" line "${prom}")
  string(STRIP "${line}" line)
  if(NOT line STREQUAL "${name} ${want}")
    message(FATAL_ERROR "expected '${name} ${want}' in the snapshot, got '${line}'")
  endif()
endforeach()

execute_process(
  COMMAND ${ANALYZE} --trace ${trace}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE analyze_rc)
if(NOT analyze_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-analyze --trace failed: ${analyze_rc}")
endif()
foreach(needle "trace events" "per-transfer timelines" "queue wait"
        "per-circuit lifecycles" "setup delay")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "trace replay output missing '${needle}':\n${out}")
  endif()
endforeach()

# Every vc::RejectReason replays under its own name, the control-plane
# outage (aux=3) included.
set(rejects ${WORKDIR}/obs_smoke_rejects.jsonl)
file(WRITE ${rejects}
  "{\"t\":1,\"ev\":\"vc_requested\",\"id\":1,\"v\":1e9}\n"
  "{\"t\":1,\"ev\":\"vc_rejected\",\"id\":1,\"aux\":3}\n")
execute_process(
  COMMAND ${ANALYZE} --trace ${rejects}
  OUTPUT_VARIABLE reject_out
  RESULT_VARIABLE reject_rc)
if(NOT reject_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-analyze --trace ${rejects} failed: ${reject_rc}")
endif()
string(FIND "${reject_out}" "REJECTED (control-plane-down)" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "aux=3 rejection not named control-plane-down:\n${reject_out}")
endif()
