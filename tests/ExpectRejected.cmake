# Runs each binary with each bad argument string and requires every run
# to start, exit 2 (the usage-error code every binary shares), and say
# "error" on stderr -- bad input must never be silently accepted.
#
# Usage:
#   cmake "-DBINS=<exe>;<exe>..." "-DBAD_ARGS=<args>|<args>..."
#         -P ExpectRejected.cmake
#
# BAD_ARGS separates argument strings with '|'; each string is split on
# whitespace.  A BINS entry may follow its executable with arguments of
# its own, which every run of that binary appends to the bad string.

if(NOT DEFINED BINS OR NOT DEFINED BAD_ARGS)
  message(FATAL_ERROR "ExpectRejected.cmake: BINS and BAD_ARGS must be set")
endif()

string(REPLACE "|" ";" ARG_STRINGS "${BAD_ARGS}")
foreach(Entry IN LISTS BINS)
  separate_arguments(OwnArgs UNIX_COMMAND "${Entry}")
  list(POP_FRONT OwnArgs Bin)
  if(NOT EXISTS "${Bin}")
    message(FATAL_ERROR "${Bin} does not exist")
  endif()
  foreach(Args IN LISTS ARG_STRINGS)
    separate_arguments(ArgList UNIX_COMMAND "${Args}")
    execute_process(COMMAND "${Bin}" ${ArgList} ${OwnArgs}
                    OUTPUT_QUIET ERROR_VARIABLE Err RESULT_VARIABLE Rc)
    # A non-numeric result means the binary did not run at all.  Exit 1
    # is for runtime failures, so it does not count as a rejection.
    if(NOT Rc STREQUAL "2")
      message(FATAL_ERROR
              "${Entry} ${Args} returned '${Rc}'; a usage error exits 2")
    endif()
    if(NOT Err MATCHES "error")
      message(FATAL_ERROR "${Entry} ${Args} failed without an error message")
    endif()
  endforeach()
endforeach()
