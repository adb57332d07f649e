#include "core/result_cache.h"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/snapshot.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/clock.h"
#include "util/frame.h"
#include "util/rng.h"

namespace panoptes::core {

namespace {

// Incremental fingerprint: every Mix advances a splitmix64 state, so
// field *order* matters and adjacent fields can't cancel out.
class FingerprintHasher {
 public:
  explicit FingerprintHasher(uint64_t init) : state_(init) {}

  void Mix(uint64_t value) {
    state_ ^= value;
    util::SplitMix64(state_);
  }
  void Mix(std::string_view value) { Mix(util::HashString(value)); }
  void Mix(bool value) { Mix(static_cast<uint64_t>(value ? 1 : 0)); }
  void Mix(double value) { Mix(std::bit_cast<uint64_t>(value)); }
  void Mix(int64_t value) { Mix(static_cast<uint64_t>(value)); }
  void Mix(int value) { Mix(static_cast<uint64_t>(value)); }

  uint64_t Digest() const { return state_; }

 private:
  uint64_t state_;
};

void MixNativeCalls(FingerprintHasher& h,
                    const std::vector<browser::NativeCall>& calls) {
  h.Mix(static_cast<uint64_t>(calls.size()));
  for (const auto& call : calls) {
    h.Mix(call.host);
    h.Mix(call.path);
    h.Mix(call.post);
    h.Mix(call.per_visit);
    h.Mix(static_cast<uint64_t>(call.body_bytes));
    h.Mix(call.carries_pii);
  }
}

void MixBrowserSpec(FingerprintHasher& h, const browser::BrowserSpec& spec) {
  h.Mix(spec.name);
  h.Mix(spec.package);
  h.Mix(spec.version);
  h.Mix(spec.engine);
  h.Mix(spec.user_agent);
  h.Mix(static_cast<uint64_t>(spec.instrumentation));
  h.Mix(spec.has_incognito);
  h.Mix(spec.supports_h3);
  h.Mix(static_cast<uint64_t>(spec.doh));
  h.Mix(spec.engine_adblock);
  h.Mix(static_cast<uint64_t>(spec.pinned_hosts.size()));
  for (const auto& host : spec.pinned_hosts) h.Mix(host);
  h.Mix(static_cast<uint64_t>(spec.history_leak));
  h.Mix(spec.history_leak_in_incognito);
  h.Mix(spec.persistent_identifier);
  const auto& pii = spec.pii;
  uint64_t pii_bits = 0;
  for (bool field : {pii.device_type, pii.manufacturer, pii.timezone,
                     pii.resolution, pii.local_ip, pii.dpi, pii.rooted,
                     pii.locale, pii.country, pii.location,
                     pii.connection_type, pii.network_type}) {
    pii_bits = (pii_bits << 1) | (field ? 1 : 0);
  }
  h.Mix(pii_bits);
  MixNativeCalls(h, spec.per_visit_calls);
  const auto& cadence = spec.idle_cadence;
  h.Mix(static_cast<uint64_t>(cadence.shape));
  h.Mix(cadence.burst_total);
  h.Mix(cadence.burst_tau_seconds);
  h.Mix(cadence.plateau_per_min);
  h.Mix(cadence.linear_per_min);
  h.Mix(cadence.quiet_total);
  h.Mix(static_cast<uint64_t>(spec.idle_destinations.size()));
  for (const auto& dest : spec.idle_destinations) {
    h.Mix(dest.host);
    h.Mix(dest.path);
    h.Mix(dest.weight);
  }
  MixNativeCalls(h, spec.startup_calls);
  h.Mix(spec.suggest_host);
  h.Mix(spec.suggest_path);
}

void MixFramework(FingerprintHasher& h, const FleetOptions& options) {
  const FrameworkOptions& fw = options.framework;
  // The catalog the job sees derives from catalog_seed when set, else
  // from the per-job seed the executor assigns; fleet runs always pin
  // it to base_seed, and base_seed already feeds the derived job seed.
  h.Mix(fw.catalog_seed.has_value());
  if (fw.catalog_seed.has_value()) h.Mix(*fw.catalog_seed);
  h.Mix(static_cast<int64_t>(fw.catalog.popular_count));
  h.Mix(static_cast<int64_t>(fw.catalog.sensitive_count));
  h.Mix(fw.catalog.sitegen.popular_mean_resources);
  h.Mix(fw.catalog.sitegen.sensitive_mean_resources);
  h.Mix(fw.catalog.sitegen.third_party_fraction);
  h.Mix(fw.catalog.sitegen.h3_fraction);
  h.Mix(fw.catalog.sitegen.bounce_fraction);
  h.Mix(fw.catalog.sitegen.decoration_fraction);
  h.Mix(fw.catalog.sitegen.plain_http_fraction);
  h.Mix(static_cast<int64_t>(fw.catalog.sitegen.max_bounce_hops));
  h.Mix(fw.latency.millis);
  h.Mix(fw.use_geo_latency);
  h.Mix(fw.block_quic);
  h.Mix(fw.install_mitm_ca);
  h.Mix(fw.chaos.Fingerprint());
  // The fleet-level watchdog overrides the per-job deadline at execute
  // time, so it is part of the job's identity too.
  h.Mix(options.watchdog_deadline.millis);
}

// Streaming knobs change what a job captures (shedding, spill
// salvage) and so invalidate cached results. The spill *path* is
// deliberately excluded: segments are consumed before the snapshot is
// taken, so moving the spill directory must not re-execute jobs —
// only turning spilling on/off does.
void MixStreamOptions(FingerprintHasher& h, const StreamOptions& stream) {
  h.Mix(stream.memory_budget_bytes);
  h.Mix(!stream.spill_dir.empty());
  h.Mix(stream.shed_when_full);
}

void MixCrawlOptions(FingerprintHasher& h, const CrawlOptions& crawl) {
  h.Mix(crawl.incognito);
  h.Mix(crawl.factory_reset);
  h.Mix(crawl.settle.millis);
  h.Mix(crawl.compact_engine_store);
  h.Mix(static_cast<int64_t>(crawl.retry.max_retries));
  h.Mix(crawl.retry.base_backoff.millis);
  h.Mix(crawl.retry.multiplier);
  h.Mix(crawl.retry.max_backoff.millis);
  h.Mix(crawl.retry.jitter);
  MixStreamOptions(h, crawl.stream);
  h.Mix(crawl.watchdog_deadline.millis);
}

void MixIdleOptions(FingerprintHasher& h, const IdleOptions& idle) {
  h.Mix(idle.duration.millis);
  h.Mix(idle.tick.millis);
  h.Mix(idle.bucket.millis);
  h.Mix(idle.factory_reset);
  MixStreamOptions(h, idle.stream);
  h.Mix(idle.watchdog_deadline.millis);
}

// A job's captured traffic is a function of the simulated device (PII
// payloads, cadence, endpoints), so the cohort — identity and full
// profile content — is part of the cache key. Default-cohort jobs mix
// the paper-testbed fingerprint, keeping pre-population snapshots'
// fingerprints stable across this extension.
void MixCohort(FingerprintHasher& h, const device::DeviceCohort& cohort) {
  h.Mix(static_cast<int64_t>(cohort.index));
  h.Mix(cohort.id);
  h.Mix(cohort.weight);
  h.Mix(device::DeviceProfileFingerprint(cohort.profile));
}

// Every field in which two jobs of one plan can differ, besides the
// browser name: kind, shard geometry, cohort and the options of the
// job's campaign kind. It names the job's file, so no two jobs of a
// plan share one. A spec change keeps the path, so the file it leaves
// behind is invalidated and rewritten rather than orphaned.
uint64_t JobIdentity(const FleetJob& job) {
  FingerprintHasher h(util::HashString("panoptes-job-identity"));
  h.Mix(static_cast<uint64_t>(job.kind));
  h.Mix(static_cast<int64_t>(job.shard));
  h.Mix(static_cast<int64_t>(job.shard_count));
  MixCohort(h, job.cohort);
  if (job.kind == CampaignKind::kIdle) {
    MixIdleOptions(h, job.idle);
  } else {
    MixCrawlOptions(h, job.crawl);
  }
  return h.Digest();
}

// Filename-safe projection of a browser name ("UC Browser" →
// "UC-Browser"). Collisions are harmless: the snapshot payload carries
// the exact name and Read rejects a mismatch.
std::string SanitizeName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '-';
    out.push_back(safe ? c : '-');
  }
  return out;
}

}  // namespace

ResultCache::ResultCache(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
}

uint64_t ResultCache::FingerprintJob(const FleetOptions& options,
                                     const FleetJob& job) {
  FingerprintHasher h(util::HashString("panoptes-result-cache"));
  h.Mix(static_cast<uint64_t>(snapshot::kSchemaVersion));
  MixFramework(h, options);
  MixBrowserSpec(h, job.spec);
  h.Mix(static_cast<uint64_t>(job.kind));
  h.Mix(static_cast<int64_t>(job.shard));
  h.Mix(static_cast<int64_t>(job.shard_count));
  MixCohort(h, job.cohort);
  // Folds base_seed plus the whole identity-derivation chain; a base
  // seed change moves every job's fingerprint through this term.
  h.Mix(DeriveJobSeed(options.base_seed, job.spec.name, job.kind, job.shard,
                      /*attempt=*/0,
                      device::DeviceProfileFingerprint(job.cohort.profile)));
  h.Mix(static_cast<int64_t>(options.max_job_retries));
  MixCrawlOptions(h, job.crawl);
  MixIdleOptions(h, job.idle);
  return h.Digest();
}

std::filesystem::path ResultCache::PathFor(const FleetJob& job) const {
  std::ostringstream name;
  name << SanitizeName(job.spec.name) << '_' << CampaignKindName(job.kind);
  if (!job.cohort.IsDefault()) name << '_' << job.cohort.Label();
  char identity[17];
  std::snprintf(identity, sizeof(identity), "%016llx",
                static_cast<unsigned long long>(JobIdentity(job)));
  name << "_shard" << job.shard << "of" << job.shard_count << '_' << identity
       << ".snap";
  return dir_ / name.str();
}

std::optional<FleetJobResult> ResultCache::Load(
    const FleetJob& job, uint64_t fingerprint, bool skip_quarantined,
    obs::JobTelemetry* telemetry) const {
  int64_t start_ns = util::SteadyNowNanos();
  std::string bytes;
  if (!util::ReadFileBytes(PathFor(job), &bytes)) {
    ++telemetry->cache_misses;
    return std::nullopt;
  }

  auto invalidate = [&]() -> std::optional<FleetJobResult> {
    ++telemetry->cache_invalidations;
    return std::nullopt;
  };

  // snapshot::Read rejects any schema but the current one.
  auto header = snapshot::PeekHeader(bytes);
  if (!header.has_value() || header->fingerprint != fingerprint) {
    return invalidate();
  }
  FleetJobResult result;
  const bool read = snapshot::Read(bytes, job, &result);
  // The indexes Read built count even when the job is then re-run;
  // the replayed job carries nothing else but its hit.
  telemetry->index_builds += result.telemetry.index_builds;
  result.telemetry = obs::JobTelemetry();
  if (!read) return invalidate();
  if (skip_quarantined && result.quarantined) {
    // Resume: the snapshot faithfully records that the job died, but a
    // restarted run should retry it rather than replay the failure.
    ++telemetry->cache_misses;
    return std::nullopt;
  }
  ++telemetry->cache_hits;
  families_.cache_read_seconds.Observe(
      static_cast<double>(util::SteadyNowNanos() - start_ns) * 1e-9);
  result.cache_hit = true;
  return result;
}

void ResultCache::Store(const FleetJobResult& result, uint64_t fingerprint,
                        obs::JobTelemetry* telemetry) const {
  int64_t start_ns = util::SteadyNowNanos();
  std::string bytes;
  try {
    bytes = snapshot::Write(result, fingerprint);
  } catch (const std::length_error&) {
    return;  // a store past the image's 4 GiB text limit is not cached
  }
  std::filesystem::path final_path = PathFor(result.job);
  // The pid keeps concurrent processes, and the sequence number this
  // process's workers, off each other's half-written files. The rename
  // is the atomic commit point.
  static std::atomic<uint64_t> temp_sequence{0};
  std::filesystem::path temp_path = final_path;
  temp_path += ".tmp" + std::to_string(static_cast<long long>(getpid())) +
               "." + std::to_string(temp_sequence.fetch_add(1));
  {
    std::ofstream file(temp_path, std::ios::binary | std::ios::trunc);
    if (!file) return;
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!file) {
      file.close();
      std::error_code ec;
      std::filesystem::remove(temp_path, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp_path, final_path, ec);
  if (ec) {
    std::filesystem::remove(temp_path, ec);
    return;
  }
  ++telemetry->cache_writes;
  families_.cache_write_seconds.Observe(
      static_cast<double>(util::SteadyNowNanos() - start_ns) * 1e-9);
}

}  // namespace panoptes::core
