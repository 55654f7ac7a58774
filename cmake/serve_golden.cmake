# Serve golden, run as a ctest via `cmake -P`: a committed mrts.joblog.v1 log
# (tests/golden/serve_mix.joblog: 40 jobs of every share policy, two
# oversized reservations that bounce and four cancels) is replayed through
# `mrts_serve --replay`, once on the fast path and once with the per-event
# oracle (MRTS_NO_BB_CACHE=1). Both outputs must equal the committed
# tests/golden/serve_mix.reports byte for byte, so a change to any served
# report or counter delta shows up as a diff against a fixed reference
# rather than against a replay by the same binary.
#
# Inputs: -DMRTS_SERVE=<path> -DGOLDEN_DIR=<tests/golden> -DWORK_DIR=<scratch>

if(NOT DEFINED MRTS_SERVE OR NOT DEFINED GOLDEN_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DMRTS_SERVE=... -DGOLDEN_DIR=... "
                      "-DWORK_DIR=... -P serve_golden.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(mode fast oracle)
  if(mode STREQUAL "oracle")
    set(no_cache 1)
  else()
    set(no_cache 0)
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env MRTS_NO_BB_CACHE=${no_cache}
            "${MRTS_SERVE}" --replay "${GOLDEN_DIR}/serve_mix.joblog"
            --out "${WORK_DIR}/serve_mix_${mode}.reports"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${mode} replay exited ${rc}: ${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  "${GOLDEN_DIR}/serve_mix.reports"
                  "${WORK_DIR}/serve_mix_${mode}.reports"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${mode} replay of serve_mix.joblog differs from "
                        "tests/golden/serve_mix.reports")
  endif()
endforeach()

message(STATUS "serve golden OK: both paths match the committed reports")
