# Serve-smoke, run as a ctest via `cmake -P`: mrts_serve + mrts_loadgen
# end to end over a real AF_UNIX socket.
#
#   1. Churn leg: 40 connect/submit/poll/disconnect cycles with cancel and
#      hard-drop cycles mixed in — the shutdown summary must account every
#      session and fd (leaked=0) and the drain must leave nothing queued.
#   2. Replay leg: a no-drop run records live-served reports
#      (--save-reports) and the server's job log; `mrts_serve --replay`
#      of that log must reproduce the reports byte-identically.
#   3. Exit-code contract: --help is 0, usage errors (unknown or repeated
#      flags, missing --socket/--cycles) are 1, input errors (bad flag
#      values, unreadable/garbage job logs) are 2, for both binaries.
#
# The server runs in the background, so the two live legs go through
# `sh -c` (the serving layer is POSIX-only anyway); `timeout` bounds each
# leg so a wedged server fails fast instead of hanging ctest.
#
# Inputs: -DMRTS_SERVE=<path> -DMRTS_LOADGEN=<path> -DWORK_DIR=<scratch dir>

if(NOT DEFINED MRTS_SERVE OR NOT DEFINED MRTS_LOADGEN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DMRTS_SERVE=... -DMRTS_LOADGEN=... "
                      "-DWORK_DIR=... -P serve_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# --- 1. Churn: drops and cancels must not leak sessions or fds. -------------
execute_process(
  COMMAND timeout 120 sh -ec "\
'${MRTS_SERVE}' --socket '${WORK_DIR}/churn.sock' --exit-after 40 \
    --job-log '${WORK_DIR}/churn.joblog' > '${WORK_DIR}/churn_summary.txt' & \
srv=$!; \
'${MRTS_LOADGEN}' --socket '${WORK_DIR}/churn.sock' --cycles 40 \
    --jobs-per-cycle 2 --seed 7 --cancel-every 5 --drop-every 7 --quiet; \
wait $srv"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "churn leg exited ${rc}:\n${out}${err}")
endif()

file(READ "${WORK_DIR}/churn_summary.txt" summary)
if(NOT summary MATCHES "sessions opened=40 closed=40 leaked=0")
  message(FATAL_ERROR "churn leg leaked sessions:\n${summary}")
endif()
if(NOT summary MATCHES "fds opened=40 closed=40 leaked=0")
  message(FATAL_ERROR "churn leg leaked fds:\n${summary}")
endif()
if(NOT summary MATCHES "queued_left=0")
  message(FATAL_ERROR "churn drain left queued jobs:\n${summary}")
endif()

# --- 2. Replay: live-served reports == job-log replay, byte for byte. -------
# No --drop-every here: a hard-dropped client's jobs still run server-side
# and appear in the replay, but the client was gone before recording them.
execute_process(
  COMMAND timeout 120 sh -ec "\
'${MRTS_SERVE}' --socket '${WORK_DIR}/replay.sock' --exit-after 20 \
    --job-log '${WORK_DIR}/replay.joblog' --quiet & \
srv=$!; \
'${MRTS_LOADGEN}' --socket '${WORK_DIR}/replay.sock' --cycles 20 \
    --jobs-per-cycle 2 --seed 11 \
    --save-reports '${WORK_DIR}/live.reports' --quiet; \
wait $srv"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay leg exited ${rc}:\n${out}${err}")
endif()

execute_process(
  COMMAND "${MRTS_SERVE}" --replay "${WORK_DIR}/replay.joblog"
          --out "${WORK_DIR}/replayed.reports"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay exited ${rc}: ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK_DIR}/live.reports" "${WORK_DIR}/replayed.reports"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "live-served reports and job-log replay differ — the "
                      "serving determinism contract (docs/SERVING.md) broke")
endif()

# --- 3. Exit-code contract: 0 --help, 1 usage, 2 input errors. --------------
function(expect_exit label expected)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL ${expected})
    message(FATAL_ERROR "${label}: exited ${rc}, expected ${expected}")
  endif()
endfunction()

expect_exit("mrts_serve --help" 0 "${MRTS_SERVE}" --help)
expect_exit("mrts_loadgen --help" 0 "${MRTS_LOADGEN}" --help)
expect_exit("mrts_serve unknown flag" 1 "${MRTS_SERVE}" --no-such-flag)
expect_exit("mrts_serve without --socket" 1 "${MRTS_SERVE}")
expect_exit("mrts_loadgen without --cycles" 1
            "${MRTS_LOADGEN}" --socket "${WORK_DIR}/churn.sock")
# A repeated flag is a usage error, never "the last one wins".
expect_exit("mrts_serve repeated --out" 1
            "${MRTS_SERVE}" --replay "${WORK_DIR}/replay.joblog"
            --out "${WORK_DIR}/a.reports" --out "${WORK_DIR}/b.reports")
expect_exit("mrts_loadgen repeated --cycles" 1
            "${MRTS_LOADGEN}" --socket "${WORK_DIR}/churn.sock"
            --cycles 1 --cycles 2)
expect_exit("mrts_serve --prcs 0" 2 "${MRTS_SERVE}" --prcs 0)
expect_exit("mrts_serve --replay missing file" 2
            "${MRTS_SERVE}" --replay "${WORK_DIR}/does_not_exist.joblog")
file(WRITE "${WORK_DIR}/garbage.joblog" "this is not a job log\n")
expect_exit("mrts_serve --replay garbage" 2
            "${MRTS_SERVE}" --replay "${WORK_DIR}/garbage.joblog")
# A value wider than its field is an input error, never silently narrowed
# into another job (share 256 -> 0, blocks 2^32+1 -> 1, seed 2^64+5 -> 5,
# prcs 2^32+6 -> 6).
set(header "mrts.joblog.v1 prcs=6 cg=2 job_classes=4 max_blocks=64")
string(APPEND header " macroblocks=24 max_queue=256 retain_jobs=1024")
string(REPLACE "prcs=6" "prcs=4294967302" wide_header "${header}")
foreach(case
    "share|${header}\nsubmit 1 t1 256 1 0 0 0 0 1 7\nrun 1\n"
    "blocks|${header}\nsubmit 1 t1 0 1 0 0 0 0 4294967297 7\nrun 1\n"
    "seed|${header}\nsubmit 1 t1 0 1 0 0 0 0 1 18446744073709551621\nrun 1\n"
    "prcs|${wide_header}\nsubmit 1 t1 0 1 0 0 0 0 1 7\nrun 1\n")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 field)
  list(GET parts 1 text)
  file(WRITE "${WORK_DIR}/wide_${field}.joblog" "${text}")
  expect_exit("mrts_serve --replay with an out-of-range ${field}" 2
              "${MRTS_SERVE}" --replay "${WORK_DIR}/wide_${field}.joblog")
endforeach()

# A header value that fits its field but not the server's own flag bound (a
# 2^32 - 1 macroblock loop) fails on line 1, before the first run could
# allocate the loop's events.
string(REPLACE "macroblocks=24" "macroblocks=4294967295" huge_header
       "${header}")
file(WRITE "${WORK_DIR}/huge_macroblocks.joblog"
     "${huge_header}\nsubmit 1 t1 0 1 0 0 0 0 1 7\nrun 1\n")
execute_process(
  COMMAND "${MRTS_SERVE}" --replay "${WORK_DIR}/huge_macroblocks.joblog"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "joblog line 1:")
  message(FATAL_ERROR "mrts_serve --replay with macroblocks=4294967295: "
                      "exited ${rc} (${err}), expected 2 with 'joblog line 1:'")
endif()

message(STATUS "serve smoke OK: zero leaks, replay byte-identical")
