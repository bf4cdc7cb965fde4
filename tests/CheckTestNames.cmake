# Fails when a discovered ctest name embeds gtest's raw byte dump of a test
# parameter ("<N>-byte object <..>").  Such dumps include pointers and
# padding, so the names change from one discovery to the next; give the
# parameter type a PrintTo instead.
#
# Usage: cmake -DCTEST=<ctest> -DBUILD_DIR=<build dir> -P CheckTestNames.cmake

execute_process(COMMAND "${CTEST}" -N
                WORKING_DIRECTORY "${BUILD_DIR}"
                OUTPUT_VARIABLE Listing RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "ctest -N failed with ${Rc}")
endif()
string(REGEX MATCHALL "[^\n]*-byte object <[^\n]*" Dumps "${Listing}")
if(Dumps)
  list(JOIN Dumps "\n" Lines)
  message(FATAL_ERROR "test names embed parameter byte dumps:\n${Lines}")
endif()
