# Runs `PROGRAM run <flag> STREAM` once for each flag in the
# comma-separated RETIRED list and fails unless every run exits 2 with the
# usage block on stderr, so scripts that still pass a removed flag fail
# loudly instead of silently running a default configuration.
#
#   cmake -DPROGRAM=<stream_runner> -DSTREAM=<file> \
#         -DRETIRED=--flag=a,--other=b -P expect_usage.cmake
string(REPLACE "," ";" flags "${RETIRED}")
foreach(flag IN LISTS flags)
  execute_process(COMMAND "${PROGRAM}" run "${flag}" "${STREAM}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag}: expected exit code 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "${flag}: no usage block on stderr:\n${err}")
  endif()
  message(STATUS "${flag}: exit 2 with usage")
endforeach()
