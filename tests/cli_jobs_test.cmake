# Runs the polynima CLI with malformed numeric flags: --jobs as a non-number,
# a negative count and one more worker than the host has hardware threads;
# --tier as a non-number and out of its 0..2 range; --schedules as a
# non-number; --seed with trailing junk. Each must be refused as a usage
# error (exit status 2) before any work starts. Valid values on a missing
# image are the controls: they get past argument parsing.
#
#   cmake -DPOLYNIMA=<path to polynima> -P cli_jobs_test.cmake

execute_process(COMMAND nproc --all OUTPUT_VARIABLE nproc
                OUTPUT_STRIP_TRAILING_WHITESPACE RESULT_VARIABLE nproc_rc)
cmake_host_system_information(RESULT cores QUERY NUMBER_OF_LOGICAL_CORES)
if(NOT nproc_rc EQUAL 0 OR nproc LESS cores)
  set(nproc ${cores})
endif()
math(EXPR over "${nproc} + 1")

# run_cli(<rc var> <stderr var> <cli arguments>...)
function(run_cli out_rc out_err)
  execute_process(
    COMMAND ${POLYNIMA} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  set(${out_rc} ${rc} PARENT_SCOPE)
  set(${out_err} "${err}" PARENT_SCOPE)
endfunction()

foreach(jobs abc -1 ${over})
  run_cli(rc err recompile missing-image.plyb --jobs ${jobs})
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--jobs expects")
    message(FATAL_ERROR "--jobs ${jobs}: expected a usage error, got exit "
                        "${rc}: ${err}")
  endif()
endforeach()

run_cli(rc err recompile missing-image.plyb --jobs 1)
if(rc EQUAL 2 OR err MATCHES "--jobs expects")
  message(FATAL_ERROR "--jobs 1 was refused: exit ${rc}: ${err}")
endif()

foreach(case "run --tier abc" "run --tier 3" "check --schedules xyz"
             "explore --seed 12q")
  separate_arguments(case_args UNIX_COMMAND "${case}")
  list(GET case_args 0 cmd)
  list(GET case_args 1 flag)
  list(GET case_args 2 value)
  run_cli(rc err ${cmd} missing-image.plyb ${flag} ${value})
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${flag} expects")
    message(FATAL_ERROR "${flag} ${value}: expected a usage error, got exit "
                        "${rc}: ${err}")
  endif()
endforeach()

run_cli(rc err run missing-image.plyb --tier 2 --seed 0x1f
        --tier-threshold 010)
if(rc EQUAL 2 OR err MATCHES "expects")
  message(FATAL_ERROR "valid --tier/--seed/--tier-threshold were refused: "
                      "exit ${rc}: ${err}")
endif()
