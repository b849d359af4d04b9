# Regenerates a committed snapshot and requires it byte-identical to the
# committed copy. The simulated fields are deterministic, so any drift is a
# change in simulated behaviour: re-pin it on purpose (regenerate the
# snapshot with the same command) and say so in CHANGES.md.
#   cmake -DEXE=<binary> -DARGS=<args joined by |> -DOUT=<fresh file>
#         -DCOMMITTED=<committed snapshot> -P snapshot.cmake
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE "${OUT}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "exit status '${rc}'\nstderr:\n${err}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}"
                        "${COMMITTED}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${COMMITTED}")
endif()
