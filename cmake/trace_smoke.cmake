# Smoke test for the flight-recorder CLI path, run as a ctest via
# `cmake -P` (no external JSON tools needed): a traced `mrts_cli run` must
# exit 0 and emit a Chrome trace containing the load/decision/feedback
# events, `trace-summary` must accept the JSONL flavour, trailing arguments
# and repeated flags must be rejected with the usage exit code 1, and
# malformed numeric positionals with the input-error exit code 2.
#
# Inputs: -DMRTS_CLI=<path to mrts_cli> -DWORK_DIR=<scratch dir>

if(NOT DEFINED MRTS_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DMRTS_CLI=... -DWORK_DIR=... -P trace_smoke.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace_json "${WORK_DIR}/trace_smoke.json")
set(trace_jsonl "${WORK_DIR}/trace_smoke.jsonl")

# 1. Traced run writes Chrome trace-event JSON.
execute_process(
  COMMAND "${MRTS_CLI}" run h264 2 2 2 --trace "${trace_json}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced run exited ${rc}, expected 0")
endif()

file(READ "${trace_json}" json)
foreach(needle
    "{\"traceEvents\":["   # Chrome JSON object format
    "\"ph\":\"X\""         # span events
    "\"ph\":\"M\""         # track metadata
    "reconfig_start"       # fabric loads
    "ecu_decision"         # ECU implementation switches
    "mpu_error")           # MPU forecast feedback
  string(FIND "${json}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "trace JSON is missing '${needle}'")
  endif()
endforeach()

# 2. JSONL flavour round-trips through trace-summary.
execute_process(
  COMMAND "${MRTS_CLI}" run h264 2 2 2 --trace "${trace_jsonl}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "JSONL traced run exited ${rc}, expected 0")
endif()
execute_process(
  COMMAND "${MRTS_CLI}" trace-summary "${trace_jsonl}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE summary)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace-summary exited ${rc}, expected 0")
endif()
string(FIND "${summary}" "reconfig_start" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "trace-summary output is missing reconfig_start")
endif()

# 3. Exit-code contract: trailing arguments are usage errors (1), malformed
#    trace input is an input error (2).
execute_process(
  COMMAND "${MRTS_CLI}" run h264 2 2 2 unexpected-trailing-arg
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "trailing argument exited ${rc}, expected usage error 1")
endif()
# Numeric positionals are strict: malformed or out-of-range counts are input
# errors, never a run on some other fabric or frame count.
foreach(args "abc;2;1" "2x;2;1" "99999999999;2;1" "2;1025;1" "2;2;0" "2;2;1x")
  execute_process(
    COMMAND "${MRTS_CLI}" run h264 ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "run h264 ${args} exited ${rc}, expected input error 2")
  endif()
endforeach()
execute_process(
  COMMAND "${MRTS_CLI}" checkpoint h264 abc 2 1 --at-cycle 1000
          --out "${WORK_DIR}/never.snapshot"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "checkpoint with prcs 'abc' exited ${rc}, expected 2")
endif()
# A repeated flag is a usage error, never "the last one wins".
execute_process(
  COMMAND "${MRTS_CLI}" run h264 2 2 1 --fault-seed 1 --fault-seed 2
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "repeated --fault-seed exited ${rc}, expected usage "
                      "error 1")
endif()
file(WRITE "${WORK_DIR}/trace_smoke_bad.jsonl" "this is not json\n")
execute_process(
  COMMAND "${MRTS_CLI}" trace-summary "${WORK_DIR}/trace_smoke_bad.jsonl"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "malformed trace exited ${rc}, expected input error 2")
endif()

message(STATUS "trace smoke OK: ${trace_json}")
