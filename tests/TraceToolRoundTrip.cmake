# Drives specctrl-trace's file paths end to end: --record with the command
# that made the golden trace must write the golden byte for byte, and
# --stats and --replay on the recorded file must exit 0 and report its
# event count.
#
# Usage:
#   cmake -DBIN=<specctrl-trace> -DGOLDEN=<file> -DOUT=<file> -DEVENTS=<n>
#         -P TraceToolRoundTrip.cmake

foreach(Var IN ITEMS BIN GOLDEN OUT EVENTS)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "TraceToolRoundTrip.cmake: ${Var} not set")
  endif()
endforeach()

file(REMOVE "${OUT}")
execute_process(COMMAND "${BIN}" --bench=gzip --input=train
                        --events-per-billion=100 --site-scale=0.1
                        "--record=${OUT}"
                RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --record exited with ${Rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}"
                        "${GOLDEN}"
                RESULT_VARIABLE Differs)
if(NOT Differs EQUAL 0)
  message(FATAL_ERROR "${BIN} --record wrote ${OUT}, which differs from "
                      "${GOLDEN}")
endif()

# --stats prints an "events" row, --replay a "replayed N events" line.
foreach(Mode IN ITEMS stats replay)
  execute_process(COMMAND "${BIN}" "--${Mode}=${OUT}"
                  OUTPUT_VARIABLE Out RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${BIN} --${Mode}=${OUT} exited with ${Rc}")
  endif()
  if(Mode STREQUAL "stats")
    set(Want "(^|\n)events +${EVENTS}\n")
  else()
    set(Want "^replayed ${EVENTS} events ")
  endif()
  if(NOT Out MATCHES "${Want}")
    message(FATAL_ERROR "${BIN} --${Mode} did not report ${EVENTS} events:\n"
                        "${Out}")
  endif()
endforeach()
