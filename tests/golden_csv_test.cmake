# Byte-identical CSV determinism for the batched SoA cycle engine: runs
# the smoke-trimmed figure and simulation benches at 1 and 4 threads and
# requires every CSV to match the committed goldens in tests/golden/
# byte for byte. Invoked by the golden_csv_determinism ctest (see
# tests/CMakeLists.txt); regenerate the goldens by running the benches
# with MEMSTREAM_SMOKE=1 MEMSTREAM_THREADS=1 and copying
# bench_results/*.csv over tests/golden/.
#
# Inputs: BENCH_BINS ("|"-separated bench binaries), GOLDEN_DIR, WORK_DIR.

cmake_policy(SET CMP0057 NEW)  # IN_LIST

string(REPLACE "|" ";" bins "${BENCH_BINS}")

foreach(threads 1 4)
  set(dir "${WORK_DIR}/t${threads}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  foreach(bin IN LISTS bins)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env MEMSTREAM_SMOKE=1
                MEMSTREAM_THREADS=${threads} "${bin}"
        WORKING_DIRECTORY "${dir}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${bin} failed (threads=${threads}, rc=${rc})")
    endif()
  endforeach()
endforeach()

file(GLOB goldens RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*.csv")
file(GLOB produced RELATIVE "${WORK_DIR}/t1/bench_results"
     "${WORK_DIR}/t1/bench_results/*.csv")

foreach(f IN LISTS produced)
  if(NOT f IN_LIST goldens)
    message(FATAL_ERROR
        "no golden for ${f} — regenerate tests/golden (see header)")
  endif()
endforeach()

foreach(f IN LISTS goldens)
  if(NOT f IN_LIST produced)
    message(FATAL_ERROR "golden ${f} was not produced by the smoke run")
  endif()
  foreach(threads 1 4)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${GOLDEN_DIR}/${f}" "${WORK_DIR}/t${threads}/bench_results/${f}"
        RESULT_VARIABLE cmp)
    if(NOT cmp EQUAL 0)
      message(FATAL_ERROR
          "${f} differs from the golden at threads=${threads}")
    endif()
  endforeach()
endforeach()

list(LENGTH goldens n)
message(STATUS "${n} CSVs byte-identical to the goldens at 1 and 4 threads")
