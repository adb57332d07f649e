// Degradation-aware run accounting.
//
// A chaos run may lose visits, retry jobs, or quarantine whole shards;
// the findings that survive are genuine (injected faults can never
// fabricate flows) but incomplete. The RunManifest is the ledger that
// makes the incompleteness explicit: every injected fault, every
// retry, every quarantined job and every salvaged shard-merge is
// recorded here, as a pure function of the per-job results in plan
// order — so the manifest is byte-identical across schedulings, like
// every other exported artifact. All times are simulated; wall-clock
// telemetry never enters the manifest.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/stream_buffer.h"

namespace panoptes::core {

// One visit that needed more than one attempt or never succeeded.
struct DegradedVisit {
  std::string browser;
  std::string kind;       // campaign kind name
  int shard = 0;
  std::string hostname;
  bool recovered = false;  // true: succeeded on a retry attempt
  int attempts = 1;
  std::string fault_cause;
  int64_t backoff_millis = 0;
};

// Per-job ledger entry; one per planned job, in plan order.
struct ManifestJob {
  std::string browser;
  std::string kind;
  int shard = 0;
  uint64_t seed = 0;  // seed of the final attempt
  int attempts = 1;
  bool quarantined = false;
  uint64_t faults_injected = 0;  // injector events on the final attempt
  std::map<std::string, uint64_t> faults_by_kind;
  uint64_t fault_injected_flows = 0;  // synthesized flows (excluded)
  uint64_t flow_writes_dropped = 0;
  uint64_t visit_retries = 0;
  uint64_t failed_visits = 0;
  int64_t backoff_millis = 0;  // simulated backoff across retries
  bool cache_hit = false;      // replayed from a result-cache snapshot
  // Streaming-ingest accounting (engine + native buffers summed) and
  // whether the final attempt was cancelled by the campaign watchdog.
  IngestStats ingest;
  bool watchdog_cancelled = false;
};

struct RunManifest {
  uint64_t base_seed = 0;
  std::string chaos_profile;  // "none" when chaos is disabled
  int max_job_retries = 0;

  std::vector<ManifestJob> jobs;
  std::vector<DegradedVisit> degraded_visits;

  // Aggregates (all derivable from `jobs`, pre-computed for reports).
  uint64_t total_faults = 0;
  std::map<std::string, uint64_t> faults_by_kind;
  uint64_t total_visit_retries = 0;
  uint64_t total_job_retries = 0;
  uint64_t total_failed_visits = 0;
  uint64_t quarantined_jobs = 0;
  uint64_t fault_injected_flows = 0;
  uint64_t flow_writes_dropped = 0;
  int64_t backoff_millis = 0;
  // Streaming-ingest aggregates across every job.
  IngestStats ingest;
  uint64_t watchdog_cancelled_jobs = 0;

  // Result-cache accounting for this run (all zero with caching off).
  // hits come from the per-job results; the probe totals come from the
  // executor's ResultCache stats when the caller passes them.
  bool cache_enabled = false;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_writes = 0;
  uint64_t cache_invalidated = 0;

  bool Degraded() const {
    return total_faults > 0 || total_visit_retries > 0 ||
           total_job_retries > 0 || total_failed_visits > 0 ||
           quarantined_jobs > 0 || flow_writes_dropped > 0 ||
           ingest.Degraded() || watchdog_cancelled_jobs > 0;
  }

  // Deterministic JSON export (std::map ordering; no wall-clock, no
  // scheduling-dependent values).
  std::string ToJson() const;
};

// Builds the manifest from an un-merged fleet result list in plan
// order. Pure: depends only on the options and the results (the cache
// totals are the jobs' own telemetry counts, summed).
RunManifest BuildRunManifest(const FleetOptions& options,
                             const std::vector<FleetJobResult>& results);

}  // namespace panoptes::core
