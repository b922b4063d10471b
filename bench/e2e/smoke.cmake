# bench_e2e_smoke: runs ecdra_e2e --smoke on every workload, untraced
# and traced. Each invocation checks its own results (golden grid, committed
# digests, traced == untraced) and exits non-zero on any failed trial.
#   cmake -DE2E=path/to/ecdra_e2e -P smoke.cmake
foreach(workload paper-grid scaled-trial extensions batch-grid)
  foreach(trace 0 1)
    execute_process(
      COMMAND "${E2E}" --workload ${workload} --smoke --trace ${trace}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "ecdra_e2e --workload ${workload} --smoke --trace ${trace} exited "
        "${rc}\n${out}\n${err}")
    endif()
  endforeach()
endforeach()
