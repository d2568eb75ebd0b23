# bench_shard_scale reads its sizes strictly: an empty or malformed
# --lanes list, or a --users value that is not a count >= 1, exits 2
# naming the flag and the refused element before any run starts.
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
