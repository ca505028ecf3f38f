# Committed-row gate for BENCH_baseline.json: run every bench the baseline
# lists (bench_scalability, bench_call_setup, bench_routing) at full size
# and demand that each fresh row equals the committed one. The rows are
# virtual-time only and deterministic for their fixed seeds, so any
# difference is a change of simulation content: regenerate the baseline in
# the same change and say why, or fix the regression.
#
# Rows are compared as parsed JSON values (same members, same values and
# number types); the baseline's pretty-printing and the benches'
# one-row-per-line output differ only in whitespace.
#
# Usage:
#   cmake -DBENCH_DIR=<dir holding the bench binaries>
#         -DBASELINE=<BENCH_baseline.json> -DWORKDIR=<scratch dir>
#         -P bench_baseline_identity.cmake

file(MAKE_DIRECTORY "${WORKDIR}")
file(READ "${BASELINE}" baseline)
string(JSON bench_count LENGTH "${baseline}" benches)
if(bench_count EQUAL 0)
  message(FATAL_ERROR "${BASELINE} lists no benches")
endif()

set(mismatches 0)
math(EXPR last_bench "${bench_count} - 1")
foreach(b RANGE ${last_bench})
  string(JSON name GET "${baseline}" benches ${b} bench)
  execute_process(
    COMMAND "${BENCH_DIR}/${name}" --json "${WORKDIR}/${name}.json"
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_FILE "${WORKDIR}/${name}.out"
    ERROR_FILE "${WORKDIR}/${name}.err"
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${name} --json exited ${status}; see ${WORKDIR}")
  endif()
  file(READ "${WORKDIR}/${name}.json" fresh)
  string(JSON fresh_name GET "${fresh}" bench)
  if(NOT fresh_name STREQUAL name)
    message(FATAL_ERROR "${name} reported itself as '${fresh_name}'")
  endif()

  string(JSON committed_rows LENGTH "${baseline}" benches ${b} rows)
  string(JSON fresh_rows LENGTH "${fresh}" rows)
  if(NOT committed_rows EQUAL fresh_rows)
    message(SEND_ERROR
            "${name}: ${fresh_rows} rows, BENCH_baseline.json has ${committed_rows}")
    math(EXPR mismatches "${mismatches} + 1")
    continue()
  endif()
  math(EXPR last_row "${committed_rows} - 1")
  foreach(r RANGE ${last_row})
    string(JSON committed GET "${baseline}" benches ${b} rows ${r})
    string(JSON row GET "${fresh}" rows ${r})
    string(JSON label GET "${committed}" label)
    string(JSON same EQUAL "${committed}" "${row}")
    if(NOT same)
      message(SEND_ERROR
              "${name} row ${r} (${label}) differs from BENCH_baseline.json:\n"
              "  committed: ${committed}\n"
              "  fresh:     ${row}")
      math(EXPR mismatches "${mismatches} + 1")
    endif()
  endforeach()
endforeach()

if(mismatches GREATER 0)
  message(FATAL_ERROR "${mismatches} bench rows differ from ${BASELINE}")
endif()
message(STATUS "all rows of ${bench_count} benches match ${BASELINE}")
