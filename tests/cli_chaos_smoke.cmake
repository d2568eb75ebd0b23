# Smoke test of the chaos harness: a seeded battery must pass every
# cross-layer invariant, its digests must be byte-identical between a
# serial and a parallel run (the determinism contract), a service crash
# must compose with a multi-tenant front-end, its trace must survive the
# schema/lifecycle checker, and the sabotage mode must catch and shrink a
# deliberately injected violation.
set(digests1 ${WORKDIR}/chaos_t1.digests)
set(digests8 ${WORKDIR}/chaos_t8.digests)
set(trace ${WORKDIR}/chaos_smoke.jsonl)

# Battery, serial.
execute_process(
  COMMAND ${CHAOS} --seed 1 --replications 10 --threads 1
          --service-crash-at 150 --digest-out ${digests1}
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "gridvc-chaos battery (threads=1) failed: ${rc1}")
endif()

# Same battery, 8 worker threads: digests must be byte-identical.
execute_process(
  COMMAND ${CHAOS} --seed 1 --replications 10 --threads 8
          --service-crash-at 150 --digest-out ${digests8}
  RESULT_VARIABLE rc8)
if(NOT rc8 EQUAL 0)
  message(FATAL_ERROR "gridvc-chaos battery (threads=8) failed: ${rc8}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${digests1} ${digests8}
  RESULT_VARIABLE same_rc)
if(NOT same_rc EQUAL 0)
  message(FATAL_ERROR "chaos digests differ between --threads 1 and 8")
endif()

# Same determinism contract with malleable reservations: shaping,
# defragmentation, and reroute run inside the battery, and the digests
# must still be byte-identical across thread counts.
set(digests_m1 ${WORKDIR}/chaos_malleable_t1.digests)
set(digests_m8 ${WORKDIR}/chaos_malleable_t8.digests)
execute_process(
  COMMAND ${CHAOS} --seed 1 --replications 10 --threads 1
          --malleable --digest-out ${digests_m1}
  RESULT_VARIABLE mrc1)
if(NOT mrc1 EQUAL 0)
  message(FATAL_ERROR "gridvc-chaos malleable battery (threads=1) failed: ${mrc1}")
endif()
execute_process(
  COMMAND ${CHAOS} --seed 1 --replications 10 --threads 8
          --malleable --digest-out ${digests_m8}
  RESULT_VARIABLE mrc8)
if(NOT mrc8 EQUAL 0)
  message(FATAL_ERROR "gridvc-chaos malleable battery (threads=8) failed: ${mrc8}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${digests_m1} ${digests_m8}
  RESULT_VARIABLE msame_rc)
if(NOT msame_rc EQUAL 0)
  message(FATAL_ERROR "malleable chaos digests differ between --threads 1 and 8")
endif()

# A service crash under a three-tenant front-end: every dispatched ticket
# is reattached to its recovered task and resolves exactly once. The
# battery must be clean, thread-count invariant, and its trace must pass
# the lifecycle checker.
set(digests_c1 ${WORKDIR}/chaos_crash_tenants_t1.digests)
set(digests_c8 ${WORKDIR}/chaos_crash_tenants_t8.digests)
set(crash_trace ${WORKDIR}/chaos_crash_tenants.jsonl)
foreach(threads 1 8)
  execute_process(
    COMMAND ${CHAOS} --seed 7 --replications 10 --threads ${threads}
            --tasks 24 --interarrival 10 --queue-limit 2 --policy shed-oldest
            --tenants 3 --service-crash-at 150
            --digest-out ${digests_c${threads}}
    RESULT_VARIABLE crc)
  if(NOT crc EQUAL 0)
    message(FATAL_ERROR "multi-tenant crash battery (threads=${threads}) failed: ${crc}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${digests_c1} ${digests_c8}
  RESULT_VARIABLE csame_rc)
if(NOT csame_rc EQUAL 0)
  message(FATAL_ERROR "multi-tenant crash digests differ between --threads 1 and 8")
endif()
execute_process(
  COMMAND ${CHAOS} --seed 7 --replications 1 --tasks 24 --interarrival 10
          --queue-limit 2 --policy shed-oldest --tenants 3 --service-crash-at 150
          --trace-out ${crash_trace}
  RESULT_VARIABLE ctrace_rc)
if(NOT ctrace_rc EQUAL 0)
  message(FATAL_ERROR "multi-tenant crash --trace-out failed: ${ctrace_rc}")
endif()
execute_process(
  COMMAND ${TRACECHECK} ${crash_trace}
  OUTPUT_VARIABLE ccheck_out
  RESULT_VARIABLE ccheck_rc)
if(NOT ccheck_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-trace-check rejected the crash trace: ${ccheck_rc}")
endif()
foreach(needle "journal_replay" "front_dispatch" "front_shed")
  string(FIND "${ccheck_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "crash trace missing event type '${needle}':\n${ccheck_out}")
  endif()
endforeach()

# Single replication with a trace: the lifecycle checker must accept it
# and the process-fault event types must have fired.
execute_process(
  COMMAND ${CHAOS} --seed 1 --replications 1 --trace-out ${trace}
  RESULT_VARIABLE trace_rc)
if(NOT trace_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-chaos --trace-out failed: ${trace_rc}")
endif()
execute_process(
  COMMAND ${TRACECHECK} ${trace}
  OUTPUT_VARIABLE check_out
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-trace-check rejected the chaos trace: ${check_rc}")
endif()
foreach(needle "server_down" "server_up" "idc_outage_begin" "idc_outage_end"
        "link_down" "transfer_finished")
  string(FIND "${check_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "chaos trace missing event type '${needle}':\n${check_out}")
  endif()
endforeach()

# Sabotage: an injected trace/metrics inconsistency must be caught on
# every crash-bearing replication and ddmin-shrunk to a minimal window
# set. The tool exits 0 only when the harness caught everything.
execute_process(
  COMMAND ${CHAOS} --seed 1 --replications 4 --sabotage --shrink
  OUTPUT_VARIABLE sab_out
  ERROR_VARIABLE sab_err
  RESULT_VARIABLE sab_rc)
if(NOT sab_rc EQUAL 0)
  message(FATAL_ERROR "sabotage run not caught: ${sab_rc}\n${sab_out}\n${sab_err}")
endif()
string(FIND "${sab_out}${sab_err}" "sabotage caught" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "sabotage output missing confirmation:\n${sab_out}\n${sab_err}")
endif()
