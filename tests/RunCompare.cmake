# Runs a report binary and compares its stdout against a golden file
# and/or against a second invocation (e.g. serial vs --jobs 4).
#
# Usage:
#   cmake -DBIN=<exe> -DARGS="<args>" [-DGOLDEN=<file>] [-DARGS2="<args>"]
#         [-DDIFFERENT_FROM=<file>]
#         [-DSTDERR_MATCH="<regex>;<regex>..." -DSTDERR_COUNT=<n>]
#         -P RunCompare.cmake
#
# ARGS/ARGS2 are whitespace-separated argument strings.  With GOLDEN set,
# the first run's output must equal the file byte-for-byte; with ARGS2
# set, the second run's output must equal the first's; with
# DIFFERENT_FROM set, the first run's output must differ from the file.
# With STDERR_MATCH set, each run's stderr must match every regex exactly
# STDERR_COUNT times.

if(NOT DEFINED BIN)
  message(FATAL_ERROR "RunCompare.cmake: BIN not set")
endif()

function(check_stderr Err Args)
  foreach(Regex IN LISTS STDERR_MATCH)
    string(REGEX MATCHALL "${Regex}" Found "${Err}")
    list(LENGTH Found N)
    if(NOT N EQUAL STDERR_COUNT)
      message(FATAL_ERROR "stderr of ${BIN} ${Args} matches '${Regex}' "
                          "${N} times, not ${STDERR_COUNT}:\n${Err}")
    endif()
  endforeach()
endfunction()

separate_arguments(ARGS_LIST UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${ARGS_LIST}
                OUTPUT_VARIABLE Out1 ERROR_VARIABLE Err1 RESULT_VARIABLE Rc1)
if(NOT Rc1 EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${Rc1}:\n${Err1}")
endif()
check_stderr("${Err1}" "${ARGS}")

if(DEFINED GOLDEN)
  file(READ "${GOLDEN}" Want)
  if(NOT Out1 STREQUAL Want)
    message(FATAL_ERROR
            "output of ${BIN} ${ARGS} differs from golden ${GOLDEN}")
  endif()
endif()

if(DEFINED DIFFERENT_FROM)
  file(READ "${DIFFERENT_FROM}" Other)
  if(Out1 STREQUAL Other)
    message(FATAL_ERROR
            "output of ${BIN} ${ARGS} equals ${DIFFERENT_FROM}")
  endif()
endif()

if(DEFINED ARGS2)
  separate_arguments(ARGS2_LIST UNIX_COMMAND "${ARGS2}")
  execute_process(COMMAND "${BIN}" ${ARGS2_LIST}
                  OUTPUT_VARIABLE Out2 ERROR_VARIABLE Err2 RESULT_VARIABLE Rc2)
  if(NOT Rc2 EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS2} exited with ${Rc2}:\n${Err2}")
  endif()
  check_stderr("${Err2}" "${ARGS2}")
  if(NOT Out1 STREQUAL Out2)
    message(FATAL_ERROR
            "output of ${BIN} differs between '${ARGS}' and '${ARGS2}'")
  endif()
endif()
