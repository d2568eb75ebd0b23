# Smoke test of the fault-injection pipeline: run the faulty-wan scenario
# with a hot fault process, schema-check the trace (which must contain the
# failure-semantics event types), replay it through the analyzer, verify
# the failure counters surface in the metrics snapshot, and check that the
# same seed reproduces a byte-identical snapshot. Another run adds server
# crashes and IDC outages to the link faults; a last loop runs a denser
# workload whose link failures kill several transfers at once.
set(metrics ${WORKDIR}/fault_smoke.prom)
set(metrics2 ${WORKDIR}/fault_smoke_rerun.prom)
set(trace ${WORKDIR}/fault_smoke.jsonl)

execute_process(
  COMMAND ${SIMULATE} --scenario faulty-wan --transfers 6 --seed 21
          --link-mtbf 60 --link-mttr 15
          --metrics-out ${metrics} --trace-out ${trace}
  RESULT_VARIABLE sim_rc)
if(NOT sim_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-simulate faulty-wan failed: ${sim_rc}")
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
# The failure-semantics event types must all have fired.
foreach(needle "link_down" "link_up" "vc_failed" "transfer_aborted")
  string(FIND "${check_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "trace missing event type '${needle}':\n${check_out}")
  endif()
endforeach()

execute_process(
  COMMAND ${ANALYZE} --trace ${trace}
  RESULT_VARIABLE analyze_rc
  OUTPUT_QUIET)
if(NOT analyze_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-analyze --trace failed: ${analyze_rc}")
endif()

# Failure counters surface in the snapshot.
file(READ ${metrics} prom)
foreach(needle "gridvc_net_link_failures" "gridvc_net_link_downtime_seconds"
        "gridvc_vc_failed" "gridvc_vc_resignal_delay_seconds"
        "gridvc_gridftp_aborted_attempts")
  string(FIND "${prom}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "metrics snapshot missing '${needle}':\n${prom}")
  endif()
endforeach()

# Seed determinism with faults enabled: a rerun must produce a
# byte-identical metrics snapshot.
execute_process(
  COMMAND ${SIMULATE} --scenario faulty-wan --transfers 6 --seed 21
          --link-mtbf 60 --link-mttr 15 --metrics-out ${metrics2}
  RESULT_VARIABLE rerun_rc)
if(NOT rerun_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-simulate rerun failed: ${rerun_rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${metrics} ${metrics2}
  RESULT_VARIABLE same_rc)
if(NOT same_rc EQUAL 0)
  message(FATAL_ERROR "same seed produced different metrics snapshots")
endif()

# All three fault kinds through the one schedule: link windows plus
# source-DTN crashes and IDC outages in one run, trace-checked.
set(trace3 ${WORKDIR}/fault_smoke_all_kinds.jsonl)
execute_process(
  COMMAND ${SIMULATE} --scenario faulty-wan --transfers 6 --seed 21
          --link-mtbf 60 --link-mttr 15 --server-mtbf 300 --idc-outage 400
          --trace-out ${trace3}
  OUTPUT_QUIET
  RESULT_VARIABLE all_rc)
if(NOT all_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-simulate faulty-wan with all fault kinds failed: ${all_rc}")
endif()
execute_process(
  COMMAND ${TRACECHECK} ${trace3}
  OUTPUT_VARIABLE check3_out
  RESULT_VARIABLE check3_rc)
if(NOT check3_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-trace-check rejected the all-kinds trace:\n${check3_out}")
endif()
foreach(needle "link_down" "link_up" "server_down" "server_up" "idc_outage_begin"
        "idc_outage_end")
  string(FIND "${check3_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "all-kinds trace missing event type '${needle}':\n${check3_out}")
  endif()
endforeach()

# A link failure that kills several transfers at once: the first killed
# transfer to exhaust its aborts deregisters from its server before the
# other killed flows' callbacks have run, and the cap refresh that follows
# must not push caps for flows the failure already removed. Every run
# accounts for all 40 transfers, completed or permanently failed.
foreach(seed RANGE 1 8)
  execute_process(
    COMMAND ${SIMULATE} --scenario faulty-wan --transfers 40 --seed ${seed}
            --link-mtbf 30 --link-mttr 20
    OUTPUT_VARIABLE dense_out
    ERROR_QUIET
    RESULT_VARIABLE dense_rc)
  if(NOT dense_rc EQUAL 0)
    message(FATAL_ERROR "faulty-wan --transfers 40 --link-mtbf 30 --seed ${seed} failed: ${dense_rc}")
  endif()
  if(NOT dense_out MATCHES "([0-9]+) transfers completed, ([0-9]+) permanently failed")
    message(FATAL_ERROR "faulty-wan seed ${seed} printed no outcome line:\n${dense_out}")
  endif()
  math(EXPR accounted "${CMAKE_MATCH_1} + ${CMAKE_MATCH_2}")
  if(NOT accounted EQUAL 40)
    message(FATAL_ERROR "faulty-wan seed ${seed} accounted for ${accounted} of 40 transfers:\n${dense_out}")
  endif()
endforeach()
