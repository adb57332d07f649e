# Telemetry smoke test, run as a ctest via `cmake -P`.
#
# Drives the real CLI end to end: a small fleet crawl that writes both
# telemetry artifacts, then the CLI's own validator on the results. Runs
# in every build flavor (including the sanitizer configs), so the whole
# instrumented pipeline gets exercised under TSan/ASan too. The same
# fleet runs again at --jobs 1 into a directory of its own: every counter
# sample (`*_total`) of its Prometheus text, and the run's peak live
# ingest bytes, must equal the --jobs 2 run's, since each job counts into
# its own scope and the executor publishes the plan-order fold. Every
# other check reads the --jobs 2 run's artifacts.
#
# Expected variables:
#   CLI     - path to the panoptes_cli executable
#   OUT_DIR - scratch directory for the telemetry artifacts
#   CHAOS   - optional: when set, run under the "flaky" fault profile
#             with retries armed and validate the run manifest too
#   POPULATION - optional: when set, run a --population 32 device-cohort
#             campaign and require the cohort breakdown in the reports

if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "fleet_smoke.cmake needs -DCLI=... and -DOUT_DIR=...")
endif()

# The artifact flags of a run that writes into `dir`.
function(artifact_args dir out)
  set(args --metrics-out "${dir}/metrics.prom" --trace-out "${dir}/trace.json")
  if(CHAOS)
    list(APPEND args --manifest-out "${dir}/manifest.json")
  endif()
  if(POPULATION)
    list(APPEND args --json "${dir}/report.json" --csv "${dir}/report.csv")
  endif()
  set(${out} "${args}" PARENT_SCOPE)
endfunction()

# The --jobs 1 run does the same work into its own directory, so the
# existence checks and the validator below read only --jobs 2 outputs.
set(serial_dir "${OUT_DIR}/jobs1")
set(metrics_file "${OUT_DIR}/metrics.prom")
set(serial_metrics_file "${serial_dir}/metrics.prom")
set(trace_file "${OUT_DIR}/trace.json")
set(manifest_file "${OUT_DIR}/manifest.json")
set(json_file "${OUT_DIR}/report.json")
set(csv_file "${OUT_DIR}/report.csv")
file(REMOVE_RECURSE "${serial_dir}")
file(REMOVE "${metrics_file}" "${trace_file}" "${manifest_file}"
     "${json_file}" "${csv_file}")
file(MAKE_DIRECTORY "${OUT_DIR}" "${serial_dir}")
artifact_args("${OUT_DIR}" parallel_artifact_args)
artifact_args("${serial_dir}" serial_artifact_args)

set(fleet_args fleet --sites 6 --shards 2 --browsers Yandex,DuckDuckGo)
set(artifacts "${metrics_file}" "${trace_file}")
set(validate_args --metrics "${metrics_file}" --trace "${trace_file}")
if(CHAOS)
  list(APPEND fleet_args --chaos-profile flaky --max-retries 2)
  list(APPEND artifacts "${manifest_file}")
  list(APPEND validate_args --manifest "${manifest_file}")
endif()
if(POPULATION)
  list(APPEND fleet_args --population 32 --population-seed 20231024)
  list(APPEND artifacts "${json_file}" "${csv_file}")
endif()

execute_process(
  COMMAND "${CLI}" ${fleet_args} --jobs 2 ${parallel_artifact_args}
  RESULT_VARIABLE fleet_rc
  OUTPUT_VARIABLE fleet_out
  ERROR_VARIABLE fleet_err)
if(NOT fleet_rc EQUAL 0)
  message(FATAL_ERROR
      "panoptes_cli fleet failed (rc=${fleet_rc})\n${fleet_out}${fleet_err}")
endif()
execute_process(
  COMMAND "${CLI}" ${fleet_args} --jobs 1 ${serial_artifact_args}
  RESULT_VARIABLE serial_rc
  OUTPUT_VARIABLE serial_out
  ERROR_VARIABLE serial_err)
if(NOT serial_rc EQUAL 0)
  message(FATAL_ERROR
      "panoptes_cli fleet --jobs 1 failed (rc=${serial_rc})\n"
      "${serial_out}${serial_err}")
endif()
set(sample_regex "^([a-z_]+_total|panoptes_ingest_live_bytes) [0-9]+$")
file(STRINGS "${metrics_file}" totals REGEX "${sample_regex}")
file(STRINGS "${serial_metrics_file}" serial_totals REGEX "${sample_regex}")
list(LENGTH totals total_count)
if(total_count EQUAL 0)
  message(FATAL_ERROR "${metrics_file} holds no *_total samples")
endif()
if(NOT totals STREQUAL serial_totals)
  message(FATAL_ERROR
      "counter samples differ between --jobs 2 and --jobs 1:\n"
      "${totals}\n${serial_totals}")
endif()

foreach(artifact IN LISTS artifacts)
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "fleet did not write ${artifact}\n${fleet_out}")
  endif()
endforeach()

if(POPULATION)
  # The cohort breakdown must actually land in the artifacts: the JSON
  # report carries per-entry cohort objects plus the population-weighted
  # aggregate block, the CSV the cohort columns.
  file(READ "${json_file}" json_content)
  string(FIND "${json_content}" "\"population\"" population_at)
  string(FIND "${json_content}" "\"cohort\"" cohort_at)
  if(population_at EQUAL -1 OR cohort_at EQUAL -1)
    message(FATAL_ERROR "population fleet report lacks cohort breakdown")
  endif()
  file(READ "${csv_file}" csv_content)
  string(FIND "${csv_content}" "cohort" csv_cohort_at)
  if(csv_cohort_at EQUAL -1)
    message(FATAL_ERROR "population fleet CSV lacks cohort columns")
  endif()
endif()

execute_process(
  COMMAND "${CLI}" validate-telemetry ${validate_args}
  RESULT_VARIABLE validate_rc
  OUTPUT_VARIABLE validate_out
  ERROR_VARIABLE validate_err)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR
      "validate-telemetry failed (rc=${validate_rc})\n"
      "${validate_out}${validate_err}")
endif()

message(STATUS "fleet telemetry smoke ok:\n${validate_out}")
