# Regression tests for gridvc-perf-gate itself: the gate must pass
# within-tolerance candidates, fail regressions, fail when a baseline
# ratio_* key is missing from the candidate (a silent rename/drop must
# not pass), surface the candidate-side half of a rename in its log, and
# refuse (exit 2) malformed input instead of gating a partial read.
set(baseline ${WORKDIR}/gate_baseline.json)
set(good ${WORKDIR}/gate_good.json)
set(regressed ${WORKDIR}/gate_regressed.json)
set(renamed ${WORKDIR}/gate_renamed.json)

file(WRITE ${baseline} "{\n  \"exhibit\": \"gate_test\",\n  \"counters\": {\n    \"ratio_a\": 1.0,\n    \"ratio_b\": 2.0,\n    \"raw_us\": 12345\n  }\n}\n")
file(WRITE ${good} "{\n  \"exhibit\": \"gate_test\",\n  \"counters\": {\n    \"ratio_a\": 1.1,\n    \"ratio_b\": 1.9,\n    \"raw_us\": 99999\n  }\n}\n")
file(WRITE ${regressed} "{\n  \"exhibit\": \"gate_test\",\n  \"counters\": {\n    \"ratio_a\": 1.6,\n    \"ratio_b\": 2.0\n  }\n}\n")
file(WRITE ${renamed} "{\n  \"exhibit\": \"gate_test\",\n  \"counters\": {\n    \"ratio_a\": 1.0,\n    \"ratio_b_v2\": 2.0\n  }\n}\n")

# Within tolerance: exit 0.
execute_process(
  COMMAND ${GATE} --baseline ${baseline} --current ${good} --tolerance 0.20
  OUTPUT_VARIABLE good_out
  RESULT_VARIABLE good_rc)
if(NOT good_rc EQUAL 0)
  message(FATAL_ERROR "gate failed a within-tolerance candidate: ${good_rc}\n${good_out}")
endif()

# Raw (non-ratio_) counters must not be gated: raw_us octupled above and
# still passed.
string(FIND "${good_out}" "raw_us" raw_pos)
if(NOT raw_pos EQUAL -1)
  message(FATAL_ERROR "gate listed a non-ratio_ key:\n${good_out}")
endif()

# Regression beyond tolerance: exit 1 and name the key.
execute_process(
  COMMAND ${GATE} --baseline ${baseline} --current ${regressed} --tolerance 0.20
  OUTPUT_VARIABLE reg_out
  RESULT_VARIABLE reg_rc)
if(NOT reg_rc EQUAL 1)
  message(FATAL_ERROR "gate did not fail a regressed candidate (rc=${reg_rc})\n${reg_out}")
endif()
string(FIND "${reg_out}" "FAIL ratio_a" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "regression log does not name ratio_a:\n${reg_out}")
endif()
string(FIND "${reg_out}" "1 regressed beyond tolerance" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "summary does not count the regression:\n${reg_out}")
endif()

# Baseline key missing from the candidate (rename/drop): exit 1, the
# summary counts it as missing, and the new candidate-only key is named
# so the log points at the rename.
execute_process(
  COMMAND ${GATE} --baseline ${baseline} --current ${renamed} --tolerance 0.20
  OUTPUT_VARIABLE ren_out
  RESULT_VARIABLE ren_rc)
if(NOT ren_rc EQUAL 1)
  message(FATAL_ERROR "gate did not fail on a missing gated key (rc=${ren_rc})\n${ren_out}")
endif()
string(FIND "${ren_out}" "current missing" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "missing-key log line absent:\n${ren_out}")
endif()
string(FIND "${ren_out}" "1 missing from current" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "summary does not count the missing key:\n${ren_out}")
endif()
string(FIND "${ren_out}" "ratio_b_v2" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "candidate-only key ratio_b_v2 not surfaced:\n${ren_out}")
endif()

# Malformed input exits 2, naming the file: a current file truncated
# mid-key, and a baseline missing a comma.
set(truncated ${WORKDIR}/gate_truncated.json)
set(no_comma ${WORKDIR}/gate_no_comma.json)
file(WRITE ${truncated} "{\n  \"exhibit\": \"gate_test\",\n  \"counters\": {\n    \"ratio_a\": 1.0,\n    \"rat")
file(WRITE ${no_comma} "{\n  \"exhibit\": \"gate_test\",\n  \"counters\": {\n    \"ratio_a\": 1.0\n    \"ratio_b\": 2.0\n  }\n}\n")
foreach(pair "${baseline};${truncated};${truncated}" "${no_comma};${good};${no_comma}")
  list(GET pair 0 base_file)
  list(GET pair 1 cur_file)
  list(GET pair 2 bad_file)
  execute_process(
    COMMAND ${GATE} --baseline ${base_file} --current ${cur_file} --tolerance 0.20
    OUTPUT_VARIABLE bad_out
    ERROR_VARIABLE bad_err
    RESULT_VARIABLE bad_rc)
  if(NOT bad_rc EQUAL 2)
    message(FATAL_ERROR "gate accepted malformed ${bad_file} (rc=${bad_rc})\n${bad_out}${bad_err}")
  endif()
  string(FIND "${bad_err}" "${bad_file}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "malformed-input error does not name ${bad_file}:\n${bad_err}")
  endif()
endforeach()
