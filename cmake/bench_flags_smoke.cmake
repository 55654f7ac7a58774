# Exit-code contract of the shared bench front end (bench/bench_common.h),
# run as a ctest via `cmake -P`. A bench takes only the flags it honours
# and hands --benchmark_* to google-benchmark: a malformed or out-of-range
# value is an input error (2); an unknown, unhonoured, repeated or
# valueless flag, or the old --flag=value spelling, is a usage error (1).
# Every case exits before any sweep runs.
#
# Inputs: -DFIG8=<bench_fig8_state_of_the_art> -DFIG9=<bench_fig9_...>
#         -DFAULT_SWEEP=<bench_fault_sweep> -DSERVE=<bench_serve_latency>
#         -DWORK_DIR=<scratch dir>

foreach(var FIG8 FIG9 FAULT_SWEEP SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DFIG8=... -DFIG9=... -DFAULT_SWEEP=... "
                        "-DSERVE=... -DWORK_DIR=... -P bench_flags_smoke.cmake")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

# expect(<exit code> <MRTS_BENCH_FRAMES> <binary> <args>...)
function(expect rc_want frames)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env MRTS_BENCH_FRAMES=${frames} ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL rc_want)
    message(FATAL_ERROR "'${ARGN}' (MRTS_BENCH_FRAMES=${frames}) exited "
                        "${rc}, expected ${rc_want}:\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

# Bad values: input errors, never a silently different run.
expect(2 2 "${FIG9}" --jobs abc)
expect(2 2 "${FIG9}" --jobs -2)
expect(2 2x "${FIG9}")
expect(2 2x "${SERVE}")

# Usage errors.
expect(1 2 "${FIG9}" --jobs)                     # valueless
expect(1 2 "${FIG8}" --trace-dir)                # valueless
expect(1 2 "${FIG9}" --trace-dir trace_dir)      # fig9 writes no traces
expect(1 2 "${FAULT_SWEEP}" --fault-rate 0.1)    # the rate axis is the figure
expect(1 2 "${FIG8}" --jobs=2)                   # no --flag=value spelling
expect(1 2 "${FIG8}" --jobs 2 --jobs 3)          # repeated
expect(1 2 "${SERVE}" --benchmark_min_time=0.01s)  # no google-benchmark

# --help lists exactly the flags the bench honours.
expect(0 2 "${FIG9}" --help)
foreach(flag --jobs --no-bb-cache)
  if(NOT out MATCHES "${flag}")
    message(FATAL_ERROR "bench_fig9 --help does not list ${flag}:\n${out}")
  endif()
endforeach()
if(out MATCHES "--trace-dir|--fault")
  message(FATAL_ERROR "bench_fig9 --help lists a flag it ignores:\n${out}")
endif()

message(STATUS "bench flags smoke OK")
