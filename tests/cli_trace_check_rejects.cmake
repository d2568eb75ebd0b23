# gridvc-trace-check on a trace that breaks a lifecycle rule: it must exit
# 1 and name the file and the offending line, counting blank lines, on
# stderr, and print no OK census.
set(bad ${WORKDIR}/trace_check_bad.jsonl)
file(WRITE ${bad}
  "{\"t\":1,\"ev\":\"server_down\",\"id\":3}\n"
  "{\"t\":2,\"ev\":\"server_up\",\"id\":3}\n"
  "\n"
  "{\"t\":3,\"ev\":\"server_up\",\"id\":3}\n")
execute_process(
  COMMAND ${TRACECHECK} ${bad}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "gridvc-trace-check exited ${rc} on a bad trace, expected 1:\n${out}${err}")
endif()
string(FIND "${err}" "${bad}:4: server_up: server 3 is not open" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "gridvc-trace-check did not name line 4:\n${err}")
endif()
string(FIND "${out}" "OK," pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "gridvc-trace-check printed OK for a bad trace:\n${out}")
endif()
