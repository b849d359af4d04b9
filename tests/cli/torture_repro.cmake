# torture_gc reproducer round trip: every line a failing sweep writes to
# --repro-file must re-run exactly its cell. Re-running a line fails the
# same single configuration and writes the identical line back, so each
# cell option survives render -> parse -> render.
#   cmake -DTORTURE=<torture_gc> -DDIR=<scratch dir> -P torture_repro.cmake
# Zero-thread cells of the threaded baselines fail deterministically.
set(sweep "${DIR}/torture_repro_sweep.txt")
file(REMOVE "${sweep}")
execute_process(
  COMMAND "${TORTURE}" --collectors naive,stealing --threads 0 --seeds 2
          --seed-base 5 --nodes 24 --no-torture --torture-seed 77 --no-cross
          --repro-file "${sweep}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "4")
  message(FATAL_ERROR "sweep exit status '${rc}', expected 4 failing cells")
endif()
file(STRINGS "${sweep}" lines)
list(LENGTH lines n)
if(NOT n EQUAL 4)
  message(FATAL_ERROR "expected 4 reproducer lines, got ${n}: ${lines}")
endif()
set(i 0)
foreach(line IN LISTS lines)
  string(REPLACE " " ";" args "${line}")
  list(POP_FRONT args tool)
  if(NOT tool STREQUAL "torture_gc")
    message(FATAL_ERROR "reproducer does not start with torture_gc: ${line}")
  endif()
  set(again "${DIR}/torture_repro_${i}.txt")
  file(REMOVE "${again}")
  execute_process(COMMAND "${TORTURE}" ${args} --repro-file "${again}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  file(READ "${again}" written)
  if(NOT rc STREQUAL "1" OR NOT written STREQUAL "${line}\n")
    message(FATAL_ERROR
      "'${line}' exited '${rc}' and reproduced as '${written}'")
  endif()
  math(EXPR i "${i} + 1")
endforeach()
