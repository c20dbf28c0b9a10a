# Runs one spec file end to end through the opindyn CLI and checks the
# aggregate CSV it writes.  Invoked as:
#   cmake -DOPINDYN=<exe> -DSPEC=<file> -DWORK_DIR=<dir> -P run_spec.cmake
# The run happens in WORK_DIR, so the spec's own output keys (csv=,
# hist-csv=, metrics-json=, ...) write there too.  The test fails on a
# nonzero exit, on a CSV without a data row, or on any CSV field equal
# to NO: the verdict the duality and propB1_drop scenarios print when
# their exact check does not hold.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${OPINDYN} run --spec=${SPEC} --csv=out.csv
                        --table=false
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "opindyn run --spec=${SPEC} exited '${code}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
file(STRINGS ${WORK_DIR}/out.csv lines)
list(LENGTH lines line_count)
if(line_count LESS 2)
  message(FATAL_ERROR "${SPEC}: the CSV has no data row\nstdout:\n${out}")
endif()
foreach(line IN LISTS lines)
  if(line MATCHES "(^|,)\"?NO\"?(,|$)")
    message(FATAL_ERROR "${SPEC}: a check failed (NO):\n${line}")
  endif()
endforeach()
