# Figure goldens, run as one ctest via `cmake -P`: every committed
# tests/golden/fig*.csv is regenerated at the size and seed it was made at
# and compared byte for byte:
#   * fig8, fig9, fig13 and fig15 at full size, once on the fast path and
#     once with --no-bb-cache (the per-event oracle);
#   * fig11 with --fault-seed 42 and fig14, both at MRTS_BENCH_FRAMES=2;
#   * fig12 as it is (its workload has a fixed size).
# The benches write their CSV into the working directory, so every run
# happens in WORK_DIR; the bench smokes write into the build root.
#
# Inputs: -DFIG8= -DFIG9= -DFIG11= -DFIG12= -DFIG13= -DFIG14= -DFIG15=
#         (bench binaries) -DGOLDEN_DIR=<tests/golden> -DWORK_DIR=<scratch>

foreach(var FIG8 FIG9 FIG11 FIG12 FIG13 FIG14 FIG15 GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DFIG8=... -DFIG9=... -DFIG11=... "
                        "-DFIG12=... -DFIG13=... -DFIG14=... -DFIG15=... "
                        "-DGOLDEN_DIR=... -DWORK_DIR=... -P bench_goldens.cmake")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# check(<bench> <csv it writes> <golden> <frames or "full"> [flags...])
function(check bench csv golden frames)
  if(frames STREQUAL "full")
    set(frames_env --unset=MRTS_BENCH_FRAMES)
  else()
    set(frames_env MRTS_BENCH_FRAMES=${frames})
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${frames_env} --unset=MRTS_NO_BB_CACHE
            "${bench}" --benchmark_min_time=0.01s ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} ${ARGN} exited ${rc}: ${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  "${GOLDEN_DIR}/${golden}" "${WORK_DIR}/${csv}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${csv} from ${bench} ${ARGN} differs from "
                        "tests/golden/${golden}")
  endif()
  file(REMOVE "${WORK_DIR}/${csv}")
endfunction()

foreach(flags "" "--no-bb-cache")
  check("${FIG8}" fig8_state_of_the_art.csv fig8_state_of_the_art.csv
        full ${flags})
  check("${FIG9}" fig9_heuristic_vs_optimal.csv fig9_heuristic_vs_optimal.csv
        full ${flags})
  check("${FIG13}" fig13_utilization_breakdown.csv
        fig13_utilization_breakdown.csv full ${flags})
  check("${FIG15}" fig15_cmp_scaling.csv fig15_cmp_scaling.csv full ${flags})
endforeach()
check("${FIG11}" fig11_speedup_vs_fault_rate.csv fig11_fault_soak.csv 2
      --fault-seed 42)
check("${FIG14}" fig14_defrag_recovery.csv fig14_defrag_recovery.csv 2)
check("${FIG12}" fig12_multitenant_fairness.csv
      fig12_multitenant_fairness.csv full)

message(STATUS "bench goldens OK: every figure CSV matches tests/golden")
