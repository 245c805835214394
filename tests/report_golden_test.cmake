# Byte-identical memstream-report output: renders the committed fixture
# inputs in tests/golden/report/ (two run reports and a metrics CSV, all
# written by the real writers) as the Markdown and HTML dashboard and as
# the Markdown and HTML --diff, and requires each output to match its
# committed golden byte for byte. Invoked by the report_golden ctest
# (see tests/CMakeLists.txt). The inputs are passed as paths relative to
# the fixture directory so the rendered "source" labels do not depend on
# where the tree is checked out.
#
# Inputs: REPORT_BIN, FIXTURE_DIR, WORK_DIR.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
    COMMAND "${REPORT_BIN}" clean.report.json faulted.report.json
            metrics.csv
            -o "${WORK_DIR}/dashboard.html" --md "${WORK_DIR}/dashboard.md"
            --title "memstream report golden"
    WORKING_DIRECTORY "${FIXTURE_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "memstream-report dashboard failed (rc=${rc})")
endif()

# Four inputs split in half: A = clean run + metrics CSV, B = faulted
# run + the same CSV, which loads on both sides but is not compared.
execute_process(
    COMMAND "${REPORT_BIN}" --diff clean.report.json metrics.csv
            faulted.report.json metrics.csv
            -o "${WORK_DIR}/diff.html" --md "${WORK_DIR}/diff.md"
            --title "memstream diff golden"
    WORKING_DIRECTORY "${FIXTURE_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "memstream-report --diff failed (rc=${rc})")
endif()

foreach(f dashboard.md dashboard.html diff.md diff.html)
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${FIXTURE_DIR}/${f}" "${WORK_DIR}/${f}"
      RESULT_VARIABLE cmp)
  if(NOT cmp EQUAL 0)
    message(FATAL_ERROR "${f} differs from the golden (see ${WORK_DIR}/${f})")
  endif()
endforeach()

message(STATUS "memstream-report output byte-identical to the 4 goldens")
