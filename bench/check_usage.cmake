# Checks that a bench harness or example exits 2 with a one-line diagnostic
# on bad arguments. Usage: cmake -DHARNESS=<exe> [-DGRID=<a good grid>
# -DWORK=<scratch dir>] [-DLEAD=<args before a trial index>]
# -P check_usage.cmake. Every harness gets the trial-count cases; the
# ablation driver (GRID set) also gets its flag and grid-file cases. With
# LEAD set, the argument after LEAD is a trial index (>= 0) instead.
function(expect_exit_2 message)
  execute_process(COMMAND ${HARNESS} ${ARGN} RESULT_VARIABLE status
                  OUTPUT_QUIET ERROR_VARIABLE stderr)
  string(FIND "${stderr}" "${message}" at)
  if(NOT status EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR "${HARNESS} ${ARGN}: exit status ${status}, stderr "
                        "'${stderr}'; expected 2 and '${message}'")
  endif()
endfunction()

if(DEFINED LEAD)
  separate_arguments(lead UNIX_COMMAND "${LEAD}")
  expect_exit_2("TRIAL: 'abc' is not a non-negative integer" ${lead} abc)
  expect_exit_2("TRIAL: '-3' is not a non-negative integer" ${lead} -3)
  return()
endif()

expect_exit_2("TRIALS: 'abc' is not a non-negative integer" ${GRID} abc)
expect_exit_2("TRIALS: must be >= 1" ${GRID} 0)
if(NOT DEFINED GRID)
  return()
endif()

file(WRITE ${WORK}/bad_value.spec "@title bad\n\nrun.fault.mtbf = -5\n")
file(WRITE ${WORK}/bad_directive.spec "@tilte typo\n")
expect_exit_2("--json: missing path" ${GRID} --json)
expect_exit_2("cannot read grid" ${WORK}/no_such_grid.spec)
expect_exit_2("bad_value.spec:3: scenario spec: '-5' must be >= 0"
              ${WORK}/bad_value.spec)
expect_exit_2("bad_directive.spec:1: unknown directive '@tilte'"
              ${WORK}/bad_directive.spec)
