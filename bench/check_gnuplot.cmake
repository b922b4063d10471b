# Runs a grid that has a @plot line at --smoke with --gnuplot and checks
# that both files were written. Usage: cmake -DHARNESS=<ablation exe>
# -DGRID=<bench/grids/*.spec> -DBASE=<output base> -P check_gnuplot.cmake
file(REMOVE ${BASE}.dat ${BASE}.gp)
execute_process(COMMAND ${HARNESS} ${GRID} --smoke --gnuplot ${BASE}
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${HARNESS} ${GRID} exited with status ${status}")
endif()
foreach(file ${BASE}.dat ${BASE}.gp)
  if(NOT EXISTS ${file})
    message(FATAL_ERROR "${HARNESS} ${GRID} --gnuplot did not write ${file}")
  endif()
endforeach()
