# Every MSSP column of a benchmark simulates one program, whatever --seed
# and --benchmarks are: fig8's "latency 0" column runs fig7's "c
# (closed,1k)" configuration, so over bzip2 and gcc the two must read the
# same speedups row by row, and gcc's fig7 row must be the same when gcc
# runs alone.
#
# Usage:
#   cmake -DFIG7=<exe> -DFIG8=<exe> -DARGS="<args>" -P MsspOneProgram.cmake
#
# ARGS is a whitespace-separated argument string given to every run.

# run(<exe> <benchmarks> <out-var>): the data rows of the run's CSV, without
# the banner's '#' lines and the header.
function(run Bin Benchmarks OutVar)
  separate_arguments(ArgList UNIX_COMMAND "${ARGS}")
  execute_process(COMMAND "${Bin}" ${ArgList} --benchmarks ${Benchmarks}
                  OUTPUT_VARIABLE Out ERROR_VARIABLE Err RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${Bin} ${ARGS} --benchmarks ${Benchmarks} "
                        "exited with ${Rc}:\n${Err}")
  endif()
  string(REGEX MATCHALL "[^\n]+" Rows "${Out}")
  list(FILTER Rows EXCLUDE REGEX "^(#|bench,)")
  set(${OutVar} "${Rows}" PARENT_SCOPE)
endfunction()

run("${FIG7}" bzip2,gcc Fig7)
run("${FIG8}" bzip2,gcc Fig8)
list(LENGTH Fig7 N)
list(LENGTH Fig8 N8)
if(NOT N EQUAL 3 OR NOT N8 EQUAL 3)
  message(FATAL_ERROR "want 3 rows (bzip2, gcc, average); fig7 printed "
                      "${N} and fig8 ${N8}")
endif()
foreach(Row7 Row8 IN ZIP_LISTS Fig7 Fig8)
  string(REPLACE "," ";" Fields7 "${Row7}")
  string(REPLACE "," ";" Fields8 "${Row8}")
  list(GET Fields7 2 Closed1k)
  list(GET Fields8 1 Latency0)
  if(NOT Closed1k STREQUAL Latency0)
    message(FATAL_ERROR "fig7's c (closed,1k) ${Closed1k} != fig8's latency "
                        "0 ${Latency0}:\n  fig7: ${Row7}\n  fig8: ${Row8}")
  endif()
endforeach()

run("${FIG7}" gcc Alone)
list(GET Fig7 1 Together)
if(NOT Alone STREQUAL Together)
  message(FATAL_ERROR "fig7's gcc row depends on the other benchmarks:\n"
                      "  alone:      ${Alone}\n  with bzip2: ${Together}")
endif()
