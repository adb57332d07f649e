#include "obs/telemetry.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"

namespace panoptes::obs {

namespace {

// Naming convention: panoptes_<layer>_<name>[_total|_seconds|_bytes].
struct CounterFamily {
  uint64_t JobTelemetry::*field;
  const char* name;
  const char* help;
};

constexpr CounterFamily kScopeCounters[] = {
    {&JobTelemetry::job_retries, "panoptes_fleet_job_retries_total",
     "Fleet jobs re-executed with a fresh attempt seed"},
    {&JobTelemetry::quarantined_jobs, "panoptes_fleet_quarantined_jobs_total",
     "Fleet jobs quarantined after exhausting the retry budget"},
    {&JobTelemetry::visits, "panoptes_core_visits_total",
     "Site visits across all crawl campaigns"},
    {&JobTelemetry::visit_retries, "panoptes_fleet_visit_retries_total",
     "Visit attempts retried after a failure"},
    {&JobTelemetry::idle_ticks, "panoptes_core_idle_ticks_total",
     "Idle-campaign monitor ticks"},
    {&JobTelemetry::engine_flows, "panoptes_core_engine_flows_total",
     "Flows attributed to the web engine (tainted)"},
    {&JobTelemetry::native_flows, "panoptes_core_native_flows_total",
     "Flows attributed to the browser app (untainted)"},
    {&JobTelemetry::watchdog_cancels, "panoptes_ingest_watchdog_cancels_total",
     "Campaigns cancelled by the per-job watchdog deadline"},
    {&JobTelemetry::flows_pushed, "panoptes_ingest_flows_pushed_total",
     "Flows accepted by streaming ingest buffers"},
    {&JobTelemetry::flows_shed, "panoptes_ingest_flows_shed_total",
     "Flows shed under memory pressure (never stored or indexed)"},
    {&JobTelemetry::spill_segments, "panoptes_ingest_spill_segments_total",
     "PANOSPILL segments sealed to disk"},
    {&JobTelemetry::spill_bytes, "panoptes_ingest_spill_bytes_total",
     "Bytes written into sealed spill segments"},
    {&JobTelemetry::spill_failures, "panoptes_ingest_spill_failures_total",
     "Spill segment writes that failed (flows kept in memory)"},
    {&JobTelemetry::backpressure_stalls,
     "panoptes_ingest_backpressure_stalls_total",
     "Pushes that found the buffer over budget with no way to spill or "
     "shed"},
    {&JobTelemetry::segments_quarantined,
     "panoptes_ingest_segments_quarantined_total",
     "Corrupt spill segments quarantined at materialize time"},
    {&JobTelemetry::dns_failures, "panoptes_device_dns_failures_total",
     "Device-side sends aborted by a failed DNS lookup"},
    {&JobTelemetry::tls_failures, "panoptes_device_tls_failures_total",
     "Device-side sends aborted during the TLS handshake"},
    {&JobTelemetry::ca_failures, "panoptes_proxy_ca_failures_total",
     "Intercepted TLS handshakes rejected because the MITM CA is "
     "untrusted"},
    {&JobTelemetry::proxy_flows, "panoptes_proxy_flows_total",
     "Flows intercepted by the MITM proxy"},
    {&JobTelemetry::request_bytes, "panoptes_proxy_request_bytes_total",
     "Request wire bytes through the proxy"},
    {&JobTelemetry::response_bytes, "panoptes_proxy_response_bytes_total",
     "Response wire bytes through the proxy"},
    {&JobTelemetry::blocked_flows, "panoptes_proxy_blocked_total",
     "Flows answered locally by a blocking addon"},
    {&JobTelemetry::forged_certs, "panoptes_proxy_forged_certs_total",
     "Leaf certificates forged under the MITM CA"},
    {&JobTelemetry::flows_stored, "panoptes_proxy_flows_stored_total",
     "Flows stored into a flow database (first capture; shard merges are "
     "not re-counted)"},
    {&JobTelemetry::flows_rolled_back, "panoptes_proxy_flows_rolled_back_total",
     "Stored flows discarded by visit-retry rollback (stored - rolled_back "
     "reconciles with final store sizes)"},
    {&JobTelemetry::flow_writes_dropped,
     "panoptes_proxy_flow_writes_dropped_total",
     "Flow database writes lost to injected write faults"},
    {&JobTelemetry::faults_injected, "panoptes_chaos_faults_injected_total",
     "Faults injected by the chaos subsystem across all kinds"},
    {&JobTelemetry::index_builds, "panoptes_index_builds_total",
     "FlowIndex builds: snapshot replays and salvage rebuilds"},
    {&JobTelemetry::indexed_flows, "panoptes_index_indexed_flows_total",
     "Flows folded into a FlowIndex by capture, salvage or shard merge"},
    {&JobTelemetry::body_bytes_materialized,
     "panoptes_web_body_bytes_materialized_total",
     "Response body bytes allocated by the generated web's servers"},
    {&JobTelemetry::cache_hits, "panoptes_cache_hits_total",
     "Fleet jobs replayed from a result-cache snapshot instead of "
     "executing"},
    {&JobTelemetry::cache_misses, "panoptes_cache_misses_total",
     "Fleet jobs executed because no usable snapshot existed"},
    {&JobTelemetry::cache_writes, "panoptes_cache_writes_total",
     "Job snapshots persisted to the result cache"},
    {&JobTelemetry::cache_invalidations, "panoptes_cache_invalidations_total",
     "Cached snapshots rejected for a stale fingerprint, schema or "
     "corruption"},
};

std::vector<Counter*> ResolveScopeCounters(MetricsRegistry& registry) {
  std::vector<Counter*> out;
  out.reserve(std::size(kScopeCounters));
  for (const CounterFamily& family : kScopeCounters) {
    out.push_back(&registry.GetCounter(family.name, family.help));
  }
  return out;
}

}  // namespace

void JobTelemetry::Accumulate(const JobTelemetry& other) {
  for (const CounterFamily& family : kScopeCounters) {
    this->*family.field += other.*family.field;
  }
  peak_live_bytes = std::max(peak_live_bytes, other.peak_live_bytes);
  backoff_millis.insert(backoff_millis.end(), other.backoff_millis.begin(),
                        other.backoff_millis.end());
}

Families::Families() : Families(MetricsRegistry::Default()) {}

Families::Families(MetricsRegistry& registry)
    : fleet_jobs(registry.GetCounter("panoptes_fleet_jobs_total",
                                     "Fleet jobs executed")),
      fleet_queue_depth(
          registry.GetGauge("panoptes_fleet_queue_depth",
                            "Fleet jobs not yet claimed by a worker")),
      fleet_workers_busy(registry.GetGauge(
          "panoptes_fleet_workers_busy", "Workers currently executing a job")),
      fleet_job_seconds(
          registry.GetHistogram("panoptes_fleet_job_duration_seconds",
                                "Wall-clock time per fleet job")),
      world_builds(
          registry.GetCounter("panoptes_fleet_world_builds_total",
                              "Generated webs built by fleet executors")),
      hosts_registered(registry.GetCounter(
          "panoptes_net_hosts_registered_total",
          "Host-table entries registered by testbed builds")),
      index_appends(registry.GetCounter("panoptes_index_appends_total",
                                        "FlowIndex shard merges via Append")),
      index_build_seconds(registry.GetHistogram(
          "panoptes_index_build_seconds", "Wall time of FlowIndex::Build",
          Histogram::LatencyBounds())),
      cache_read_seconds(
          registry.GetHistogram("panoptes_cache_snapshot_read_seconds",
                                "Snapshot load + decode latency")),
      cache_write_seconds(
          registry.GetHistogram("panoptes_cache_snapshot_write_seconds",
                                "Snapshot encode + persist latency")),
      reports(registry.GetCounter("panoptes_analysis_reports_total",
                                  "Fleet reports rendered")),
      report_seconds(
          registry.GetHistogram("panoptes_analysis_report_seconds",
                                "Wall-clock time to render one fleet report")),
      scope_counters_(ResolveScopeCounters(registry)),
      live_bytes_(registry.GetGauge(
          "panoptes_ingest_live_bytes",
          "Largest live (unspilled) bytes any ingest buffer held (the "
          "maximum of every published job's peak_live_bytes)")),
      backoff_seconds_(registry.GetHistogram(
          "panoptes_fleet_backoff_delay_seconds",
          "Simulated backoff delay before a retry",
          Histogram::LatencyBounds())) {}

void Families::Publish(const JobTelemetry& scope) const {
  for (size_t i = 0; i < scope_counters_.size(); ++i) {
    scope_counters_[i]->Inc(scope.*kScopeCounters[i].field);
  }
  const auto peak = static_cast<int64_t>(scope.peak_live_bytes);
  if (peak > live_bytes_.Value()) live_bytes_.Set(peak);
  for (int64_t millis : scope.backoff_millis) {
    backoff_seconds_.Observe(static_cast<double>(millis) / 1000.0);
  }
}

}  // namespace panoptes::obs
