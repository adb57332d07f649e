// Harness telemetry: one job's accounting, and the one place every
// exported metric family is named.
//
// Each core::Framework owns a JobTelemetry: plain, single-threaded
// counters that belong to one job. A layer that alone sees an event (the
// proxy's wire bytes, a store's writes and rollbacks, an origin's
// allocated bodies, ...) bumps it through the pointer its framework
// hands it, as it emits journal events. Where a layer already keeps the
// exact count (IngestStats, NetworkStackStats, the visit records, the
// injector's events, a buffer's dropped writes, the proxy's flow, cert
// and blocked counts) the scope is filled from that count when the
// attempt ends instead of counting it twice. So a job's scope is a pure
// function of its plan: the same at any worker count.
//
// The fleet executor folds every job's scope in plan order and publishes
// the sum once per run through Families. Run-level work (testbed builds,
// shard merges, cache timers, report renders, the fleet gauges) is
// bumped by its owner through Families. Nothing else in src/ touches the
// registry, and every family name and help string lives in
// telemetry.cpp.
#pragma once

#include <cstdint>
#include <vector>

namespace panoptes::obs {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;

struct JobTelemetry {
  // Fleet: attempts re-executed, and 1 when the job was quarantined.
  uint64_t job_retries = 0;
  uint64_t quarantined_jobs = 0;
  // Campaigns. Visit retries are Σ (attempts − 1) over the visits.
  uint64_t visits = 0;
  uint64_t visit_retries = 0;
  uint64_t idle_ticks = 0;
  uint64_t engine_flows = 0;
  uint64_t native_flows = 0;
  uint64_t watchdog_cancels = 0;
  // Streaming ingest: every buffer's IngestStats.
  uint64_t flows_pushed = 0;
  uint64_t flows_shed = 0;
  uint64_t spill_segments = 0;
  uint64_t spill_bytes = 0;
  uint64_t spill_failures = 0;
  uint64_t backpressure_stalls = 0;
  uint64_t segments_quarantined = 0;
  // The largest live bytes any of the job's buffers held. Folds by max.
  uint64_t peak_live_bytes = 0;
  // Device network stack.
  uint64_t dns_failures = 0;
  uint64_t tls_failures = 0;
  uint64_t ca_failures = 0;
  // MITM proxy and flow stores.
  uint64_t proxy_flows = 0;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  uint64_t blocked_flows = 0;
  uint64_t forged_certs = 0;
  uint64_t flows_stored = 0;
  uint64_t flows_rolled_back = 0;
  uint64_t flow_writes_dropped = 0;
  uint64_t faults_injected = 0;
  // Flow indexes built in the job (salvage rebuilds, snapshot replays)
  // and flows folded into one incrementally or by a salvage build; a
  // replay's builds add no flows.
  uint64_t index_builds = 0;
  uint64_t indexed_flows = 0;
  // Response body bytes the generated web's servers allocated.
  uint64_t body_bytes_materialized = 0;
  // What the result cache did for the job.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_writes = 0;
  uint64_t cache_invalidations = 0;
  // Simulated backoff before each visit retry, in the order taken.
  std::vector<int64_t> backoff_millis;

  // Adds `other` (peak_live_bytes takes the max; backoffs append).
  void Accumulate(const JobTelemetry& other);

  bool operator==(const JobTelemetry&) const = default;
};

// Handles to every metric family, resolved from one registry when
// constructed: a mutex and a scan per family. The fleet executor and the
// result cache resolve theirs once and keep them; the other run-level
// owners resolve one each time they publish (once per testbed build,
// shard merge, report render or salvaged job), never per flow or event.
// Counts reach the registry only through these handles, so
// obs::SetMetricsEnabled(false) keeps it at zero.
class Families {
 public:
  Families();  // the default registry
  explicit Families(MetricsRegistry& registry);  // tests, benches

  Families(const Families&) = delete;
  Families& operator=(const Families&) = delete;

  // Adds a (folded) job scope: counters add, the live-bytes gauge rises
  // to its peak if that is higher and every backoff is observed in order.
  // Called by one thread at a time.
  void Publish(const JobTelemetry& scope) const;

  // Run-level families, bumped by their owners.
  Counter& fleet_jobs;
  Gauge& fleet_queue_depth;
  Gauge& fleet_workers_busy;
  Histogram& fleet_job_seconds;
  Counter& world_builds;
  Counter& hosts_registered;  // by Testbed::Build
  Counter& index_appends;
  Histogram& index_build_seconds;
  Histogram& cache_read_seconds;
  Histogram& cache_write_seconds;
  Counter& reports;
  Histogram& report_seconds;

 private:
  std::vector<Counter*> scope_counters_;  // in family order
  Gauge& live_bytes_;
  Histogram& backoff_seconds_;
};

}  // namespace panoptes::obs
