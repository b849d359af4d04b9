# Regenerates a committed snapshot and requires it byte-identical to the
# committed copy. The simulated fields are deterministic, so any drift is a
# change in simulated behaviour: re-pin it on purpose (regenerate the
# snapshot with the same command) and say so in CHANGES.md.
#   cmake -DEXE=<binary> -DARGS=<args joined by |> -DOUT=<fresh file>
#         -DCOMMITTED=<committed snapshot> [-DSTRIP=<fields joined by |>]
#         -P snapshot.cmake
# STRIP names host-time fields (wall-clock seconds and the rates derived
# from them) that are removed from every JSONL record of both files before
# the comparison; every other byte must still match.
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE "${OUT}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "exit status '${rc}'\nstderr:\n${err}")
endif()
set(fresh "${OUT}")
set(committed "${COMMITTED}")
if(STRIP)
  string(REPLACE "|" ";" strip "${STRIP}")
  foreach(side fresh committed)
    file(READ "${${side}}" text)
    foreach(field ${strip})
      string(REGEX REPLACE ",\"${field}\":[^,}]*" "" text "${text}")
    endforeach()
    set(stripped "${OUT}.${side}.stripped")
    file(WRITE "${stripped}" "${text}")
    set(${side} "${stripped}")
  endforeach()
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${fresh}"
                        "${committed}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${COMMITTED}")
endif()
