# Runs retention_analysis, regulator_characterization, test_flow_optimization
# and march_playground (-DRETENTION/-DREGULATOR/-DFLOW/-DMARCH=<path>) on
# malformed input and requires exit status 2, a usage error, for each one:
# never an abort on an uncaught exception, never a run on a silently zeroed
# or non-finite number. The corrupt journal is written under -DWORK=<dir>.
set(journal "${WORK}/examples_argv_garbage.journal")
string(RANDOM LENGTH 100 RANDOM_SEED 20 garbage)
set(cases
  "${RETENTION}|--resume|${journal}"
  "${REGULATOR}|--resume|${journal}"
  "${FLOW}|--resume|${journal}"
  "${MARCH}|{up(w0)}|abc"
  "${MARCH}|{up(w0)}|-5"
  "${MARCH}|{up(w0)}|nan"
  "${MARCH}|{up(w0)}|1e400")
foreach(case IN LISTS cases)
  file(WRITE "${journal}" "${garbage}")
  string(REPLACE "|" ";" command "${case}")
  execute_process(COMMAND ${command}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "2")
    string(REPLACE "|" " " shown "${case}")
    message(FATAL_ERROR "${shown}: exit status '${status}', expected 2\n"
                        "${stderr}")
  endif()
endforeach()
file(REMOVE "${journal}")
