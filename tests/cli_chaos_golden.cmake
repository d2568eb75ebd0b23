# Exact chaos digests: four batteries whose replications crash and
# journal-recover the transfer service (alone, under three tenants, and
# shed-heavy) or book malleable circuits, each compared byte for byte
# with chaos_golden.digests. cli_chaos_smoke compares --threads 1 with
# --threads 8, which a replay change that moved both alike would pass;
# this test fails on any change to a digest.
#
# The golden file holds, per battery, a "## <flags>" line followed by
# the digest lines the battery writes. A deliberate re-baseline
# regenerates it with the same flags and says why in CHANGES.md:
#
#   for f in <each battery below>; do echo "## $f";
#     gridvc-chaos $f --digest-out d && cat d; done > chaos_golden.digests
set(batteries
  "--seed 1 --replications 16 --service-crash-at 150"
  "--seed 1 --replications 16 --service-crash-at 150 --tenants 3"
  "--seed 7 --replications 8 --tasks 24 --interarrival 10 --queue-limit 2 --policy shed-oldest --tenants 3 --service-crash-at 150"
  "--seed 1 --replications 16 --malleable")

file(READ ${GOLDEN} golden)
set(actual "")
set(index 0)
foreach(battery IN LISTS batteries)
  separate_arguments(args UNIX_COMMAND "${battery}")
  set(out ${WORKDIR}/chaos_golden_${index}.digests)
  execute_process(
    COMMAND ${CHAOS} ${args} --threads 1 --digest-out ${out}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gridvc-chaos ${battery} failed: ${rc}")
  endif()
  file(READ ${out} digests)
  set(section "## ${battery}\n${digests}")
  string(FIND "${golden}" "${section}" pos)
  if(pos EQUAL -1)
    message(SEND_ERROR "digests of '${battery}' differ from ${GOLDEN}; this run's are in ${out}")
  endif()
  string(APPEND actual "${section}")
  math(EXPR index "${index} + 1")
endforeach()
if(NOT actual STREQUAL golden)
  message(FATAL_ERROR "${GOLDEN} holds other batteries or lines than this test runs")
endif()
