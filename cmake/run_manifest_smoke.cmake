# Campaign-manifest smoke test, run as a ctest via `cmake -P`.
#
# Drives `panoptes_cli run-manifest` on a 3-entry manifest (a crawl, an
# incognito crawl and an idle run) twice with --out: both runs must exit
# 0, report 3 results and write byte-identical JSON. An invalid
# manifest and a missing file must each exit 1.
#
# Expected variables:
#   CLI     - path to the panoptes_cli executable
#   OUT_DIR - scratch directory

if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR
      "run_manifest_smoke.cmake needs -DCLI=... and -DOUT_DIR=...")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

file(WRITE "${OUT_DIR}/campaign.json" [=[
{"seed": 20231024, "popular_sites": 4, "sensitive_sites": 2,
 "entries": [
   {"browser": "Yandex", "mode": "crawl"},
   {"browser": "Edge", "mode": "crawl", "incognito": true},
   {"browser": "Opera", "mode": "idle", "idle_minutes": 2}
 ]}
]=])

foreach(run a b)
  execute_process(
    COMMAND "${CLI}" run-manifest "${OUT_DIR}/campaign.json"
        --out "${OUT_DIR}/${run}.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run-manifest run ${run} failed (rc=${rc})\n${out}${err}")
  endif()
  file(READ "${OUT_DIR}/${run}.json" json)
  string(JSON results LENGTH "${json}" results)
  if(NOT results EQUAL 3)
    message(FATAL_ERROR "run-manifest run ${run} wrote ${results} results, not 3")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
      "${OUT_DIR}/a.json" "${OUT_DIR}/b.json"
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "two run-manifest runs wrote different results")
endif()

file(WRITE "${OUT_DIR}/invalid.json"
    [=[{"entries": [{"browser": "Netscape"}]}]=])
foreach(input invalid.json missing.json)
  execute_process(
    COMMAND "${CLI}" run-manifest "${OUT_DIR}/${input}"
        --out "${OUT_DIR}/unused.json"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "run-manifest on ${input} exited ${rc}, not 1")
  endif()
endforeach()

message(STATUS "run-manifest smoke ok")
