# Worker-count invariance smoke test, run as a ctest via `cmake -P`.
#
# Drives the real CLI twice with only --jobs changed and no --shards:
# the worker count must not change the job plan, so the JSON and CSV
# reports must come out byte-identical. (The shard count is part of
# every job's seed; if it followed --jobs, the two runs would be two
# different plans.)
#
# Expected variables:
#   CLI     - path to the panoptes_cli executable
#   OUT_DIR - scratch directory

if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR
      "fleet_jobs_invariance_smoke.cmake needs -DCLI=... and -DOUT_DIR=...")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(jobs 1 4)
  execute_process(
    COMMAND "${CLI}" fleet --jobs ${jobs} --sites 8
        --browsers Yandex,Opera --idle
        --json "${OUT_DIR}/jobs${jobs}.json"
        --csv "${OUT_DIR}/jobs${jobs}.csv"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fleet --jobs ${jobs} failed (rc=${rc})\n${out}${err}")
  endif()
endforeach()

foreach(ext json csv)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        "${OUT_DIR}/jobs1.${ext}" "${OUT_DIR}/jobs4.${ext}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
        "fleet --jobs 4 wrote a different ${ext} report than --jobs 1")
  endif()
endforeach()

message(STATUS "fleet jobs invariance smoke ok")
