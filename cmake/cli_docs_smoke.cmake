# Drift pin between the CLI tables and docs/CLI.md, run as a ctest via
# `cmake -P`: every verb and every --flag that `--help` prints for
# mrts_cli, mrts_serve, mrts_loadgen and the fig-8 bench (which honours
# every bench flag) must appear in docs/CLI.md — each verb as a
# `mrts_cli <verb>` line of its usage block.
#
# Inputs: -DMRTS_CLI=... -DMRTS_SERVE=... -DMRTS_LOADGEN=... -DFIG8=...
#         -DCLI_DOC=<path to docs/CLI.md>

foreach(var MRTS_CLI MRTS_SERVE MRTS_LOADGEN FIG8 CLI_DOC)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DMRTS_CLI=... -DMRTS_SERVE=... "
                        "-DMRTS_LOADGEN=... -DFIG8=... -DCLI_DOC=... "
                        "-P cli_docs_smoke.cmake")
  endif()
endforeach()
file(READ "${CLI_DOC}" doc)

set(missing "")
foreach(binary "${MRTS_CLI}" "${MRTS_SERVE}" "${MRTS_LOADGEN}" "${FIG8}")
  execute_process(COMMAND "${binary}" --help
                  RESULT_VARIABLE rc OUTPUT_VARIABLE help)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${binary} --help' exited ${rc}, expected 0")
  endif()
  string(REGEX MATCHALL "--[a-z][a-z0-9-]*" flags "${help}")
  list(REMOVE_DUPLICATES flags)
  foreach(flag ${flags})
    string(FIND "${doc}" "${flag}" pos)
    if(pos EQUAL -1)
      list(APPEND missing "${flag}")
    endif()
  endforeach()
endforeach()

execute_process(COMMAND "${MRTS_CLI}" --help OUTPUT_VARIABLE help)
string(REGEX MATCHALL "\n  mrts_cli [a-z-]+" verbs "${help}")
foreach(verb ${verbs})
  string(STRIP "${verb}" verb)
  string(FIND "${doc}" "${verb}" pos)
  if(pos EQUAL -1)
    list(APPEND missing "${verb}")
  endif()
endforeach()

if(missing)
  message(FATAL_ERROR "docs/CLI.md does not mention: ${missing}")
endif()
message(STATUS "cli docs smoke OK")
