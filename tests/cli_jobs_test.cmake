# Runs the polynima CLI with malformed --jobs values: a non-number, a negative
# count and one more worker than the host has hardware threads. Each must be
# refused as a usage error (exit status 2) before any work starts. A valid
# count on a missing image is the control: it gets past argument parsing.
#
#   cmake -DPOLYNIMA=<path to polynima> -P cli_jobs_test.cmake

execute_process(COMMAND nproc --all OUTPUT_VARIABLE nproc
                OUTPUT_STRIP_TRAILING_WHITESPACE RESULT_VARIABLE nproc_rc)
cmake_host_system_information(RESULT cores QUERY NUMBER_OF_LOGICAL_CORES)
if(NOT nproc_rc EQUAL 0 OR nproc LESS cores)
  set(nproc ${cores})
endif()
math(EXPR over "${nproc} + 1")

function(run_cli jobs out_rc out_err)
  execute_process(
    COMMAND ${POLYNIMA} recompile missing-image.plyb --jobs ${jobs}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  set(${out_rc} ${rc} PARENT_SCOPE)
  set(${out_err} "${err}" PARENT_SCOPE)
endfunction()

foreach(jobs abc -1 ${over})
  run_cli(${jobs} rc err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--jobs expects")
    message(FATAL_ERROR "--jobs ${jobs}: expected a usage error, got exit "
                        "${rc}: ${err}")
  endif()
endforeach()

run_cli(1 rc err)
if(rc EQUAL 2 OR err MATCHES "--jobs expects")
  message(FATAL_ERROR "--jobs 1 was refused: exit ${rc}: ${err}")
endif()
