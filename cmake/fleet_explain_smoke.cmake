# `explain` smoke test, run as a ctest via `cmake -P`.
#
# `panoptes_cli explain` reads a run's result-cache snapshots through
# snapshot::ReadAny and walks a finding back to its job, visit and flow.
# A cached fleet run writes the JSON report and the snapshots; the first
# finding that the report ties to a visit must then explain with exit 0,
# naming the report's browser and visit, and an id that no snapshot
# holds must exit 1.
#
# Expected variables:
#   CLI     - path to the panoptes_cli executable
#   OUT_DIR - scratch directory

if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR
      "fleet_explain_smoke.cmake needs -DCLI=... and -DOUT_DIR=...")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

set(cache_dir "${OUT_DIR}/cache")
set(report "${OUT_DIR}/fleet.json")
execute_process(
  COMMAND "${CLI}" fleet --jobs 2 --shards 2 --sites 4 --idle
      --browsers Edge,Yandex --cache-dir "${cache_dir}" --json "${report}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fleet run failed (rc=${rc})\n${out}${err}")
endif()

# The first finding with a visit, in report order.
file(READ "${report}" report_text)
string(JSON result_count LENGTH "${report_text}" results)
set(flow_id "")
math(EXPR last_result "${result_count} - 1")
foreach(r RANGE ${last_result})
  string(JSON finding_count ERROR_VARIABLE no_findings
      LENGTH "${report_text}" results ${r} findings)
  if(no_findings OR finding_count EQUAL 0)
    continue()
  endif()
  math(EXPR last_finding "${finding_count} - 1")
  foreach(f RANGE ${last_finding})
    string(JSON visit GET "${report_text}" results ${r} findings ${f} visit)
    if(visit GREATER_EQUAL 0)
      string(JSON flow_id GET "${report_text}" results ${r} findings ${f}
          flow_id)
      string(JSON browser GET "${report_text}" results ${r} browser)
      break()
    endif()
  endforeach()
  if(NOT flow_id STREQUAL "")
    break()
  endif()
endforeach()
if(flow_id STREQUAL "")
  message(FATAL_ERROR "the report has no finding with a visit:\n${report_text}")
endif()

execute_process(
  COMMAND "${CLI}" explain --finding "${flow_id}" --cache-dir "${cache_dir}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "explain ${flow_id} failed (rc=${rc})\n${out}${err}")
endif()
foreach(expected "finding ${flow_id}" "job: browser=${browser} "
                 "visit: #${visit} ")
  string(FIND "${out}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
        "explain ${flow_id} did not print \"${expected}\":\n${out}")
  endif()
endforeach()

# No snapshot holds this id: not found is exit 1, not a crash or a 0.
execute_process(
  COMMAND "${CLI}" explain --finding 0xffffffffffffffff
      --cache-dir "${cache_dir}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
      "explain of an unknown id exited ${rc}, not 1\n${out}${err}")
endif()

message(STATUS "fleet explain smoke ok (${flow_id}, ${browser} visit ${visit})")
