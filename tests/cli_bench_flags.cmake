# bench_shard_scale reads its sizes strictly: an empty or malformed
# --lanes list, or a --users value that is not a count >= 1, exits 2
# naming the flag and the refused element before any run starts. The
# shared bench harness reads --threads the same way, so an exhibit bench
# refuses a malformed, zero or missing pool width before it runs.
function(expect_refused flag value refused)
  execute_process(
    COMMAND ${SHARD_SCALE} --no-json ${flag} "${value}"
    WORKING_DIRECTORY ${WORKDIR}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2 for ${flag} '${value}', got ${rc}\n${out}${err}")
  endif()
  string(FIND "${err}" "${flag}: '${refused}'" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "refusal of ${flag} '${value}' does not name '${refused}':\n${err}")
  endif()
endfunction()

expect_refused(--lanes "" "")
expect_refused(--lanes "0,4x" "0")
expect_refused(--lanes "4,4x" "4x")
expect_refused(--users "abc" "abc")

# Runs `bench` with the arguments after `needle`; it must exit 2 with
# `needle` on stderr.
function(expect_threads_refused bench needle)
  execute_process(
    COMMAND ${bench} ${ARGN}
    WORKING_DIRECTORY ${WORKDIR}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2 from ${bench} ${ARGN}, got ${rc}\n${out}${err}")
  endif()
  string(FIND "${err}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${bench} ${ARGN}: stderr lacks '${needle}':\n${err}")
  endif()
endfunction()

foreach(value abc 2x 0)
  expect_threads_refused(${TABLE1} "--threads: '${value}'" --no-json --threads ${value})
endforeach()
# --threads as the last argument, with no value.
expect_threads_refused(${TABLE1} "--threads: missing value" --no-json --threads)
# bench_perf_micro reads --threads itself, the same way.
expect_threads_refused(${PERF_MICRO} "--threads: 'abc'" --threads abc)
expect_threads_refused(${PERF_MICRO} "--threads: missing value" --threads)
