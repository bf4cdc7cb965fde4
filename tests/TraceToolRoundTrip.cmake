# Drives specctrl-trace's file paths end to end: --record with the command
# that made the golden trace must write the golden byte for byte, and
# --stats and --replay on the recorded file must exit 0 and report its
# event count.  --head 5 with the same command must print the stream's
# first five events: index, site, taken, instret; --head 100000000000000
# must print every event of the stream once and exit 0, without
# allocating room for N events.
#
# Usage:
#   cmake -DBIN=<specctrl-trace> -DGOLDEN=<file> -DOUT=<file> -DEVENTS=<n>
#         -P TraceToolRoundTrip.cmake

foreach(Var IN ITEMS BIN GOLDEN OUT EVENTS)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "TraceToolRoundTrip.cmake: ${Var} not set")
  endif()
endforeach()

set(GOLDEN_COMMAND --bench=gzip --input=train --events-per-billion=100
                   --site-scale=0.1)

file(REMOVE "${OUT}")
execute_process(COMMAND "${BIN}" ${GOLDEN_COMMAND} "--record=${OUT}"
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

execute_process(COMMAND "${BIN}" ${GOLDEN_COMMAND} --head 5
                OUTPUT_VARIABLE Out RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --head 5 exited with ${Rc}")
endif()
set(Want "^index +site +taken +instret\n-+\n"
         "0 +5 +T +9\n1 +14 +N +14\n2 +13 +N +21\n"
         "3 +14 +N +23\n4 +10 +T +25\n$")
string(CONCAT Want ${Want})
if(NOT Out MATCHES "${Want}")
  message(FATAL_ERROR "${BIN} --head 5 printed other events:\n${Out}")
endif()

execute_process(COMMAND "${BIN}" ${GOLDEN_COMMAND} --head 100000000000000
                OUTPUT_VARIABLE Out RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --head 100000000000000 exited with ${Rc}")
endif()
string(REGEX MATCHALL "[0-9]+ +[0-9]+ +[TN] +[0-9]+\n" Rows "${Out}")
list(LENGTH Rows Printed)
if(NOT Printed EQUAL EVENTS)
  message(FATAL_ERROR "${BIN} --head 100000000000000 printed ${Printed} "
                      "event rows, not the stream's ${EVENTS}")
endif()
