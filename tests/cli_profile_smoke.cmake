# Smoke test of the profiling pipeline: simulate with --profile-out,
# validate and inspect the Chrome trace with gridvc-profile, prove the
# profile digest is byte-identical across thread counts via gridvc-chaos,
# and check the flight dump of a sabotaged chaos battery.
set(profile ${WORKDIR}/profile_smoke.json)
set(digest1 ${WORKDIR}/profile_smoke_t1.txt)
set(digest8 ${WORKDIR}/profile_smoke_t8.txt)

execute_process(
  COMMAND ${SIMULATE} --scenario nersc-ornl --profile-out ${profile}
  RESULT_VARIABLE sim_rc)
if(NOT sim_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-simulate --profile-out failed: ${sim_rc}")
endif()

# The profile must parse, and the hotspot table must show the
# instrumented simulation layers.
execute_process(
  COMMAND ${PROFILE} ${profile}
  OUTPUT_VARIABLE hotspots
  RESULT_VARIABLE prof_rc)
if(NOT prof_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-profile rejected the profile: ${prof_rc}")
endif()
foreach(zone "sim.dispatch_batch" "net.recompute" "net.max_min_allocate"
        "gridftp.engine.submit")
  string(FIND "${hotspots}" "${zone}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "hotspot table missing zone '${zone}':\n${hotspots}")
  endif()
endforeach()

# Zone call counts are thread-count-invariant (exec determinism), so the
# digest of the same chaos battery at 1 and 8 threads must be identical.
foreach(threads 1 8)
  execute_process(
    COMMAND ${CHAOS} --seed 11 --replications 4 --threads ${threads}
            --profile-out ${WORKDIR}/profile_smoke_t${threads}.json
    OUTPUT_QUIET ERROR_QUIET
    RESULT_VARIABLE chaos_rc)
  if(NOT chaos_rc EQUAL 0)
    message(FATAL_ERROR "gridvc-chaos --threads ${threads} failed: ${chaos_rc}")
  endif()
  execute_process(
    COMMAND ${PROFILE} --digest ${WORKDIR}/profile_smoke_t${threads}.json
    OUTPUT_FILE ${WORKDIR}/profile_smoke_t${threads}.txt
    RESULT_VARIABLE digest_rc)
  if(NOT digest_rc EQUAL 0)
    message(FATAL_ERROR "gridvc-profile --digest failed: ${digest_rc}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${digest1} ${digest8}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR "profile digests differ between --threads 1 and 8")
endif()

# --flight-out replays the first failing seed after the battery and
# writes the last 512 events of its trace as JSONL. Sixteen tasks make
# seed 3's trace longer than that. The dump is the same file at any
# --threads, it is the tail of the seed's own --trace-out, and
# gridvc-analyze --trace reads it. The replay moves neither the
# battery's digests nor its profile's zone counts.
function(run_battery name)
  execute_process(
    COMMAND ${CHAOS} --seed 3 --replications 8 --sabotage --tasks 16 ${ARGN}
            --digest-out ${WORKDIR}/flight_${name}.digests
            --profile-out ${WORKDIR}/flight_${name}.json
    OUTPUT_QUIET ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sabotaged battery ${ARGN} failed: ${rc}\n${err}")
  endif()
  execute_process(
    COMMAND ${PROFILE} --digest ${WORKDIR}/flight_${name}.json
    OUTPUT_FILE ${WORKDIR}/flight_${name}.zones
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gridvc-profile --digest flight_${name}.json failed: ${rc}")
  endif()
endfunction()
function(expect_same a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${WORKDIR}/${a} ${WORKDIR}/${b}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()
run_battery(t1 --threads 1 --flight-out ${WORKDIR}/flight_t1.jsonl)
run_battery(t8 --threads 8 --flight-out ${WORKDIR}/flight_t8.jsonl)
run_battery(plain --threads 1)
expect_same(flight_t1.jsonl flight_t8.jsonl)
expect_same(flight_t1.digests flight_plain.digests)
expect_same(flight_t1.zones flight_plain.zones)

set(trace ${WORKDIR}/flight_seed3.jsonl)
execute_process(
  COMMAND ${CHAOS} --seed 3 --sabotage --tasks 16 --trace-out ${trace}
  OUTPUT_QUIET ERROR_QUIET)
file(READ ${trace} whole)
file(READ ${WORKDIR}/flight_t1.jsonl tail)
string(REGEX MATCHALL "\n" newlines "${tail}")
list(LENGTH newlines tail_lines)
string(LENGTH "${whole}" whole_len)
string(LENGTH "${tail}" tail_len)
math(EXPR start "${whole_len} - ${tail_len} - 1")
if(NOT tail_lines EQUAL 512 OR start LESS 0)
  message(FATAL_ERROR "flight dump holds ${tail_lines} lines, not a 512-line tail of ${trace}")
endif()
string(SUBSTRING "${whole}" ${start} -1 suffix)
if(NOT suffix STREQUAL "\n${tail}")
  message(FATAL_ERROR "flight dump is not the last 512 lines of ${trace}")
endif()

execute_process(
  COMMAND ${ANALYZE} --trace ${WORKDIR}/flight_t1.jsonl
  OUTPUT_VARIABLE timelines ERROR_VARIABLE err
  RESULT_VARIABLE analyze_rc)
if(NOT analyze_rc EQUAL 0)
  message(FATAL_ERROR "gridvc-analyze --trace rejected the flight dump: ${analyze_rc}\n${err}")
endif()

# The dump opens mid-run, after some transfers were submitted: each
# transfer whose transfer_finished line is in it must print as finished,
# never as a submit at 0 s that never started.
string(REGEX MATCHALL "\"ev\":\"transfer_finished\",\"id\":[0-9]+" finished "${tail}")
if(NOT finished)
  message(FATAL_ERROR "flight dump holds no transfer_finished line")
endif()
foreach(line IN LISTS finished)
  string(REGEX REPLACE ".*:" "" id "${line}")
  string(REGEX MATCH "  transfer ${id}: [^\n]*" timeline "${timelines}")
  if(timeline STREQUAL "" OR timeline MATCHES "never started" OR NOT timeline MATCHES "finish")
    message(FATAL_ERROR "finished transfer ${id} misread from the flight dump: '${timeline}'\n${timelines}")
  endif()
endforeach()
