# Runs yield_analysis (-DEXE=<path>) on malformed argument lists and requires
# exit status 2, a usage error, for each one: never an abort, never a run on
# a silently zeroed number.
set(cases
  "--trials|0"
  "--mode|is|--shift|nan"
  "--mode|is|--shift|inf"
  "--vreg|abc"
  "--rows|abc"
  "--threads|-1"
  "--seed|0x")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  execute_process(COMMAND "${EXE}" ${args}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "2")
    string(REPLACE "|" " " shown "${case}")
    message(FATAL_ERROR
            "yield_analysis ${shown}: exit status '${status}', expected 2\n"
            "${stderr}")
  endif()
endforeach()
