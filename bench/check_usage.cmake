# Checks that a bench harness or example exits 2 with a one-line diagnostic
# on bad arguments. Usage: cmake -DHARNESS=<exe> [-DGRID=<a good grid>
# [-DWORK=<work dir>]] [-DLEAD=<args before a trial index>]
# -P check_usage.cmake. Every harness gets the trial-count cases (the
# ablation driver after GRID); with WORK set too (and a GRID without
# @plot) the driver also gets its flag and grid-file cases, and a failing
# trial, which exits 1. With LEAD set, the argument after LEAD is a trial
# index (>= 0) instead.
function(expect_exit expected message)
  execute_process(COMMAND ${HARNESS} ${ARGN} RESULT_VARIABLE status
                  OUTPUT_QUIET ERROR_VARIABLE stderr)
  string(FIND "${stderr}" "${message}" at)
  if(NOT status EQUAL expected OR at EQUAL -1)
    message(FATAL_ERROR "${HARNESS} ${ARGN}: exit status ${status}, stderr "
                        "'${stderr}'; expected ${expected} and '${message}'")
  endif()
endfunction()

if(DEFINED LEAD)
  separate_arguments(lead UNIX_COMMAND "${LEAD}")
  expect_exit(2 "TRIAL: 'abc' is not a non-negative integer" ${lead} abc)
  expect_exit(2 "TRIAL: '-3' is not a non-negative integer" ${lead} -3)
  return()
endif()

expect_exit(2 "TRIALS: 'abc' is not a non-negative integer" ${GRID} abc)
expect_exit(2 "TRIALS: must be >= 1" ${GRID} 0)
if(NOT DEFINED WORK)
  return()
endif()

file(WRITE ${WORK}/bad_value.spec "@title bad\n\nrun.fault.mtbf = -5\n")
file(WRITE ${WORK}/bad_directive.spec "@tilte typo\n")
file(WRITE ${WORK}/bad_plot.spec "@title bad\n@plot nosuch\n")
file(WRITE ${WORK}/bad_governor.spec
  "@title bad\ngrid.heuristics = LL\ngrid.filter_variants = none\n"
  "@axis governor\n@level typo run.governor = nope\n")
expect_exit(2 "--json: missing path" ${GRID} --json)
expect_exit(2 "--gnuplot: missing path" ${GRID} --gnuplot)
expect_exit(2 "--gnuplot: the grid has no @plot line"
            ${GRID} --gnuplot ${WORK}/no_plot)
expect_exit(2 "cannot read grid" ${WORK}/no_such_grid.spec)
expect_exit(2 "bad_value.spec:3: scenario spec: '-5' must be >= 0"
            ${WORK}/bad_value.spec)
expect_exit(2 "bad_directive.spec:1: unknown directive '@tilte'"
            ${WORK}/bad_directive.spec)
expect_exit(2 "bad_plot.spec:2: expected '@plot SOURCE' with a known SOURCE"
            ${WORK}/bad_plot.spec)
expect_exit(1 "ablation: typo: " ${WORK}/bad_governor.spec 1)
