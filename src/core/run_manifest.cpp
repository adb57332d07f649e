#include "core/run_manifest.h"

#include "chaos/profile.h"
#include "util/hex.h"
#include "util/json.h"

namespace panoptes::core {

namespace {

util::JsonObject IngestJson(const IngestStats& ingest) {
  util::JsonObject out;
  out["flows_pushed"] = ingest.flows_pushed;
  out["flows_shed"] = ingest.flows_shed;
  out["spill_segments"] = ingest.spill_segments;
  out["spill_bytes"] = ingest.spill_bytes;
  out["spill_failures"] = ingest.spill_failures;
  out["backpressure_stalls"] = ingest.backpressure_stalls;
  out["segments_quarantined"] = ingest.segments_quarantined;
  out["flows_lost"] = ingest.flows_lost;
  out["peak_live_bytes"] = ingest.peak_live_bytes;
  return out;
}

}  // namespace

RunManifest BuildRunManifest(const FleetOptions& options,
                             const std::vector<FleetJobResult>& results,
                             const CacheStats* cache) {
  RunManifest manifest;
  manifest.base_seed = options.base_seed;
  manifest.chaos_profile = options.framework.chaos.name;
  manifest.max_job_retries = options.max_job_retries;
  manifest.cache_enabled = !options.cache_dir.empty();
  if (cache != nullptr) {
    manifest.cache_misses = cache->misses;
    manifest.cache_writes = cache->writes;
    manifest.cache_invalidated = cache->invalidated;
  }

  for (const auto& result : results) {
    ManifestJob job;
    job.browser = result.job.spec.name;
    job.kind = std::string(CampaignKindName(result.job.kind));
    job.shard = result.job.shard;
    job.seed = result.seed;
    job.attempts = result.attempts;
    job.quarantined = result.quarantined;
    job.faults_injected = result.faults.size();
    for (const auto& event : result.faults) {
      ++job.faults_by_kind[std::string(chaos::FaultKindName(event.kind))];
    }
    job.flow_writes_dropped = result.flow_writes_dropped;
    job.cache_hit = result.cache_hit;
    if (job.cache_hit) ++manifest.cache_hits;
    if (const CaptureResult* capture = result.capture()) {
      job.fault_injected_flows = capture->fault_injected_flows;
      job.ingest = capture->ingest;
      job.watchdog_cancelled = capture->watchdog_cancelled;
    }
    if (result.crawl.has_value()) {
      for (const auto& visit : result.crawl->visits) {
        if (visit.attempts <= 1 && visit.ok) continue;
        job.visit_retries += static_cast<uint64_t>(visit.attempts - 1);
        if (!visit.ok) ++job.failed_visits;
        job.backoff_millis += visit.backoff_millis;

        DegradedVisit degraded;
        degraded.browser = job.browser;
        degraded.kind = job.kind;
        degraded.shard = job.shard;
        degraded.hostname = visit.hostname;
        degraded.recovered = visit.ok;
        degraded.attempts = visit.attempts;
        degraded.fault_cause = visit.fault_cause;
        degraded.backoff_millis = visit.backoff_millis;
        manifest.degraded_visits.push_back(std::move(degraded));
      }
    }

    manifest.total_faults += job.faults_injected;
    for (const auto& [kind, count] : job.faults_by_kind) {
      manifest.faults_by_kind[kind] += count;
    }
    manifest.total_visit_retries += job.visit_retries;
    manifest.total_job_retries += static_cast<uint64_t>(job.attempts - 1);
    manifest.total_failed_visits += job.failed_visits;
    if (job.quarantined) ++manifest.quarantined_jobs;
    manifest.fault_injected_flows += job.fault_injected_flows;
    manifest.flow_writes_dropped += job.flow_writes_dropped;
    manifest.backoff_millis += job.backoff_millis;
    manifest.ingest.Accumulate(job.ingest);
    if (job.watchdog_cancelled) ++manifest.watchdog_cancelled_jobs;
    manifest.jobs.push_back(std::move(job));
  }
  return manifest;
}

std::string RunManifest::ToJson() const {
  util::JsonObject root;
  root["base_seed"] = base_seed;
  root["chaos_profile"] = chaos_profile;
  root["max_job_retries"] = static_cast<int64_t>(max_job_retries);
  root["degraded"] = Degraded();

  util::JsonObject totals;
  totals["faults_injected"] = total_faults;
  util::JsonObject by_kind;
  for (const auto& [kind, count] : faults_by_kind) by_kind[kind] = count;
  totals["faults_by_kind"] = std::move(by_kind);
  totals["visit_retries"] = total_visit_retries;
  totals["job_retries"] = total_job_retries;
  totals["failed_visits"] = total_failed_visits;
  totals["quarantined_jobs"] = quarantined_jobs;
  totals["fault_injected_flows"] = fault_injected_flows;
  totals["flow_writes_dropped"] = flow_writes_dropped;
  totals["backoff_millis"] = backoff_millis;
  totals["ingest"] = IngestJson(ingest);
  totals["watchdog_cancelled_jobs"] = watchdog_cancelled_jobs;
  root["totals"] = std::move(totals);

  util::JsonObject cache;
  cache["enabled"] = cache_enabled;
  cache["hits"] = cache_hits;
  cache["misses"] = cache_misses;
  cache["writes"] = cache_writes;
  cache["invalidated"] = cache_invalidated;
  root["cache"] = std::move(cache);

  util::JsonArray job_array;
  for (const auto& job : jobs) {
    util::JsonObject entry;
    entry["browser"] = job.browser;
    entry["kind"] = job.kind;
    entry["shard"] = static_cast<int64_t>(job.shard);
    entry["seed"] = util::Hex64(job.seed);
    entry["attempts"] = static_cast<int64_t>(job.attempts);
    entry["quarantined"] = job.quarantined;
    entry["faults_injected"] = job.faults_injected;
    util::JsonObject kinds;
    for (const auto& [kind, count] : job.faults_by_kind) kinds[kind] = count;
    entry["faults_by_kind"] = std::move(kinds);
    entry["fault_injected_flows"] = job.fault_injected_flows;
    entry["flow_writes_dropped"] = job.flow_writes_dropped;
    entry["visit_retries"] = job.visit_retries;
    entry["failed_visits"] = job.failed_visits;
    entry["backoff_millis"] = job.backoff_millis;
    entry["cache_hit"] = job.cache_hit;
    entry["ingest"] = IngestJson(job.ingest);
    entry["watchdog_cancelled"] = job.watchdog_cancelled;
    job_array.emplace_back(std::move(entry));
  }
  root["jobs"] = std::move(job_array);

  util::JsonArray visit_array;
  for (const auto& visit : degraded_visits) {
    util::JsonObject entry;
    entry["browser"] = visit.browser;
    entry["kind"] = visit.kind;
    entry["shard"] = static_cast<int64_t>(visit.shard);
    entry["hostname"] = visit.hostname;
    entry["recovered"] = visit.recovered;
    entry["attempts"] = static_cast<int64_t>(visit.attempts);
    entry["fault_cause"] = visit.fault_cause;
    entry["backoff_millis"] = visit.backoff_millis;
    visit_array.emplace_back(std::move(entry));
  }
  root["degraded_visits"] = std::move(visit_array);

  return util::Json(std::move(root)).Dump();
}

}  // namespace panoptes::core
