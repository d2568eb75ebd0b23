# Shard-count determinism: the federation scenario must produce
# byte-identical digest files at --shards 1, 3 and 4 — two seeds of the
# 21-site scenario and four of a small 8-site one. Three lanes divide
# neither domain count, so lanes own unequal shares of the worlds. This
# is the acceptance contract of the sharded simulation: the shard count
# widens the executor, never the behavior.
function(expect_shard_invariant seed sites users)
  set(stem ${WORKDIR}/fed_s${seed}_${sites}sites)
  foreach(shards 1 3 4)
    execute_process(
      COMMAND ${SIMULATE} --scenario federation --seed ${seed}
              --sites ${sites} --users ${users} --shards ${shards}
              --digest-out ${stem}_shards${shards}.digest
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "federation (seed ${seed}, ${sites} sites, shards ${shards}) failed: ${rc}")
    endif()
  endforeach()
  foreach(shards 3 4)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${stem}_shards1.digest ${stem}_shards${shards}.digest
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR
        "federation digests differ between shards 1 and ${shards} (seed ${seed}, ${sites} sites)")
    endif()
  endforeach()
endfunction()

foreach(seed 1 12)
  expect_shard_invariant(${seed} 21 300)
endforeach()
foreach(seed 21 22 23 24)
  expect_shard_invariant(${seed} 8 96)
endforeach()
