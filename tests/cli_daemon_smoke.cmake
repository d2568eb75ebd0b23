# Daemon smoke: boot gridvc-serve as a real second process on an
# abstract unix socket with the virtual test clock, replay a scripted
# multi-tenant client session against it, then SIGTERM the daemon and
# require a clean drain (quiescent front-end, exit 0, metrics dump).
# The daemon serves on one thread: /proc must show exactly one while it
# is up. This is the two-process flavor of `gridvc-serve --self-test`.
set(script ${WORKDIR}/daemon_smoke.script)
set(driver ${WORKDIR}/daemon_smoke.sh)
set(server_log ${WORKDIR}/daemon_smoke.server.log)
set(client_out ${WORKDIR}/daemon_smoke.client.out)
set(metrics ${WORKDIR}/daemon_smoke.metrics.prom)

file(WRITE ${script} [[# daemon smoke client script
{"op":"ping"}
{"op":"connect","tenant":"t1"}
!expect "session":1
{"op":"connect","tenant":"t2"}
!expect "session":2
{"op":"submit","session":1,"label":"smoke-a","files":[268435456],"key":"a"}
!expect "ticket":1
{"op":"submit","session":2,"label":"smoke-b","files":[268435456,268435456]}
!expect "ticket":2
# idempotent resubmission returns the original ticket
{"op":"submit","session":1,"label":"smoke-a","files":[268435456],"key":"a"}
!expect "duplicate":true
!waitdone 1 1
!expect "task_state":"succeeded"
!waitdone 2 2
!expect "task_state":"succeeded"
{"op":"stats","tenant":"t1"}
!expect "completed":1
# cancelling a finished ticket is a no-op
{"op":"cancel","session":1,"ticket":1}
!expect "cancelled":false
{"op":"disconnect","session":1}
{"op":"disconnect","session":2}
]])

file(WRITE ${driver} "set -u
SOCK=\"@gridvc-daemon-smoke-$$\"
'${SERVE}' --socket \"$SOCK\" --test-clock --tenants 2 \\
  --metrics-out '${metrics}' 2> '${server_log}' &
SRV=$!
for i in $(seq 1 100); do
  grep -q listening '${server_log}' 2>/dev/null && break
  sleep 0.1
done
'${SERVE}' --client --socket \"$SOCK\" --script '${script}' > '${client_out}'
CLIENT_RC=$?
THREADS=$(sed -n 's/^Threads:[[:space:]]*//p' /proc/$SRV/status)
kill -TERM $SRV
wait $SRV
SRV_RC=$?
echo \"client_rc=$CLIENT_RC server_rc=$SRV_RC threads=$THREADS\"
test $CLIENT_RC -eq 0 && test $SRV_RC -eq 0 && test \"$THREADS\" = 1
")

execute_process(
  COMMAND sh ${driver}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ ${server_log} slog)
  message(FATAL_ERROR "daemon smoke failed (rc=${rc})\n${out}\n${err}\nserver log:\n${slog}")
endif()

# The daemon must report a clean drain on SIGTERM.
file(READ ${server_log} slog)
foreach(needle "listening" "drained after" "quiescent=1")
  string(FIND "${slog}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "server log missing '${needle}':\n${slog}")
  endif()
endforeach()

# The scripted session must have completed its tickets over the wire.
file(READ ${client_out} cout)
foreach(needle "\"task_state\":\"succeeded\"" "\"completed\":1")
  string(FIND "${cout}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "client output missing '${needle}':\n${cout}")
  endif()
endforeach()

# The exit-time metrics dump carries the per-tenant counters.
file(READ ${metrics} prom)
foreach(needle "gridvc_front_tenant_t1_completed" "gridvc_front_sessions_open 0")
  string(FIND "${prom}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "metrics dump missing '${needle}':\n${prom}")
  endif()
endforeach()

message(STATUS "daemon smoke OK: scripted session + SIGTERM drain clean")
