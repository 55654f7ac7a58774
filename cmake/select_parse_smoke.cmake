# Exit-code contract of `mrts_cli select` argument parsing, run as a ctest
# via `cmake -P`: well-formed KERNEL=e[,tf,tb] specs and fabric budgets
# must select (exit 0); partially-parsing, non-finite or out-of-range
# numbers must be input errors (exit 2) instead of being silently truncated
# the way a bare strtod would parse "1.5x" as 1.5 or "" as 0.
#
# Inputs: -DMRTS_CLI=<path to mrts_cli> -DWORK_DIR=<scratch dir>

if(NOT DEFINED MRTS_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DMRTS_CLI=... -DWORK_DIR=... -P select_parse_smoke.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(lib "${WORK_DIR}/select_parse_lib.txt")
file(WRITE "${lib}" "# minimal library for CLI parse tests
datapath dp0 FG units=1 bitstream=83047
kernel   sad sw=520
ise      sad_v1 kernel=sad dps=dp0 lat=520,100
")

function(expect_select rc_want)
  execute_process(
    COMMAND "${MRTS_CLI}" select "${lib}" 2 2 ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL ${rc_want})
    message(FATAL_ERROR "select ${ARGN}: exited ${rc}, expected ${rc_want}")
  endif()
endfunction()

# Well-formed specs select fine.
expect_select(0 "sad=120")
expect_select(0 "sad=120.5")
expect_select(0 "sad=120,400,90")

# Trailing garbage after a number used to be silently dropped by strtod.
expect_select(2 "sad=1.5x")
expect_select(2 "sad=120,400x")
expect_select(2 "sad=120,400,90,7")

# Non-finite / empty / negative values are input errors, not zero.
expect_select(2 "sad=inf")
expect_select(2 "sad=nan")
expect_select(2 "sad=")
expect_select(2 "sad=-3")
expect_select(2 "sad=120,-1")

# The <prcs> <cg> positionals are strict too: "abc", "2x" and out-of-range
# budgets are input errors, never a selection on some other fabric.
function(expect_budget rc_want prcs cg)
  execute_process(
    COMMAND "${MRTS_CLI}" select "${lib}" ${prcs} ${cg} "sad=120"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL ${rc_want})
    message(FATAL_ERROR "select ${prcs} ${cg}: exited ${rc}, "
                        "expected ${rc_want}")
  endif()
endfunction()

expect_budget(0 0 1)
expect_budget(2 abc 2)
expect_budget(2 2x 2)
expect_budget(2 2 1025)
expect_budget(2 99999999999 2)

message(STATUS "select parse smoke OK")
