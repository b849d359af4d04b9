# Runs one command line and checks its exit status exactly (a crash
# reports a signal description, never a number, so it cannot pass), and
# optionally that stderr matches a regular expression:
#   cmake -DEXE=<binary> -DARGS=<args joined by |> -DEXPECT_RC=<n>
#         [-DEXPECT_STDERR=<regex>] -P expect.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR
    "exit status '${rc}', expected ${EXPECT_RC}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
