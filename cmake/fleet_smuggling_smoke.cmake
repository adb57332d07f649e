# UID-smuggling scenario smoke test, run as a ctest via `cmake -P`.
#
# Drives the whole scenario layer through the real CLI: a fleet run
# with the sitegen tracking overlay on (bounce redirect chains + link
# decoration + a plain-http slice) must produce a non-empty smuggling
# report whose findings carry redirect-chain provenance, and the
# JSON/CSV must come out byte-identical across --jobs 1 vs 8 and across
# batch vs budgeted spill-to-disk ingest.
#
# Expected variables:
#   CLI     - path to the panoptes_cli executable
#   OUT_DIR - scratch directory

if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR
      "fleet_smuggling_smoke.cmake needs -DCLI=... and -DOUT_DIR=...")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Yandex exercises the native Base64 carrier on top of the engine-side
# joins; high scenario fractions keep the run small but finding-rich.
# Two shards, so the parallel runs also exercise the shard merge; the
# shard count is part of every job seed and flow uid, and stays fixed
# while only the worker count changes.
set(common_args --sites 12 --shards 2 --browsers Yandex
    --smuggling 0.6 --plain-http-fraction 0.2 --max-bounce-hops 3)

function(run_fleet rc_var out_var)
  execute_process(
    COMMAND "${CLI}" fleet ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(${rc_var} "${rc}" PARENT_SCOPE)
  set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

# Reference: serial batch run.
set(golden_json "${OUT_DIR}/golden_smuggling.json")
set(golden_csv "${OUT_DIR}/golden_smuggling.csv")
run_fleet(rc log --jobs 1 ${common_args}
    --smuggling-json "${golden_json}" --smuggling-csv "${golden_csv}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference smuggling run failed (rc=${rc})\n${log}")
endif()

# The scenario must actually produce cross-domain joins with chain
# provenance — an empty report means the overlay or the analyzer broke.
file(READ "${golden_json}" golden_text)
foreach(needle "\"findings\":[{" "\"chain_head\":" "\"redirect_of\":"
        "\"carrier\":\"native\"" "\"carrier\":\"engine\"")
  string(FIND "${golden_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
        "smuggling report is missing '${needle}':\n${golden_text}")
  endif()
endforeach()
file(READ "${golden_csv}" golden_csv_text)
if(NOT golden_csv_text MATCHES "Yandex")
  message(FATAL_ERROR "smuggling CSV has no finding rows:\n${golden_csv_text}")
endif()

# Parallel and spill-to-disk runs must reproduce the reference reports
# byte for byte.
foreach(tag jobs8 spill)
  if(tag STREQUAL "spill")
    set(extra_args --jobs 8 --memory-budget 16384
        --spill-dir "${OUT_DIR}/spill")
  else()
    set(extra_args --jobs 8)
  endif()
  set(json "${OUT_DIR}/${tag}.json")
  set(csv "${OUT_DIR}/${tag}.csv")
  run_fleet(rc log ${common_args} ${extra_args}
      --smuggling-json "${json}" --smuggling-csv "${csv}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tag} smuggling run failed (rc=${rc})\n${log}")
  endif()
  foreach(pair "${json};${golden_json}" "${csv};${golden_csv}")
    list(GET pair 0 actual)
    list(GET pair 1 expected)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${actual}" "${expected}"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR
          "${tag} smuggling report ${actual} differs from the serial "
          "reference")
    endif()
  endforeach()
endforeach()

message(STATUS "fleet smuggling smoke ok")
