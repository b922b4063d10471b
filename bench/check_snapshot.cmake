# Runs one ablation harness at the committed snapshot's trial count and
# compares its --json report byte for byte with the committed snapshot, so a
# change that moves any number of the ablation fails ctest.
#
# Usage: cmake -DHARNESS=<exe> -DTRIALS=<n> -DOUT=<report path>
#              -DSNAPSHOT=<results/BENCH_*.json> -P check_snapshot.cmake
foreach(var HARNESS TRIALS OUT SNAPSHOT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_snapshot.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${HARNESS} ${TRIALS} --json ${OUT}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with status ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${SNAPSHOT}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${SNAPSHOT}")
endif()
