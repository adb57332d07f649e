#include "core/fleet.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "analysis/flow_index.h"
#include "core/result_cache.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/rng.h"

namespace panoptes::core {

namespace {

// Per-shard contiguous site range [begin, end) of an n-site catalog.
void ShardRange(size_t n, int shard, int shard_count, size_t* begin,
                size_t* end) {
  size_t count = shard_count < 1 ? 1 : static_cast<size_t>(shard_count);
  size_t s = static_cast<size_t>(shard < 0 ? 0 : shard);
  *begin = n * s / count;
  *end = n * (s + 1) / count;
}

device::NetworkStackStats SumStats(const device::NetworkStackStats& a,
                                   const device::NetworkStackStats& b) {
  device::NetworkStackStats out = a;
  out.sends += b.sends;
  out.ok += b.ok;
  out.dns_failures += b.dns_failures;
  out.tls_failures += b.tls_failures;
  out.pin_failures += b.pin_failures;
  out.timeouts += b.timeouts;
  out.quic_blocked += b.quic_blocked;
  out.quic_direct += b.quic_direct;
  out.diverted += b.diverted;
  return out;
}

// A job is dead when it attempted visits and every one of them failed
// (a fully-dead host, a catastrophic fault episode). Idle runs and
// empty shards never fail — there is nothing to retry.
bool JobFailed(const FleetJobResult& result) {
  // A watchdog-cancelled campaign is wedged, not merely degraded: its
  // capture is incomplete by construction, so it takes the same
  // retry/quarantine path as a fully-dead job.
  const CaptureResult* capture = result.capture();
  if (capture != nullptr && capture->watchdog_cancelled) return true;
  if (!result.crawl.has_value()) return false;
  const auto& visits = result.crawl->visits;
  if (visits.empty()) return false;
  for (const auto& visit : visits) {
    if (visit.ok) return false;
  }
  return true;
}

}  // namespace

JobFigures FleetJobResult::Figures() const {
  JobFigures figures;
  const CaptureResult* capture = this->capture();
  if (capture == nullptr) return figures;
  if (crawl.has_value()) {
    figures.engine_requests = crawl->engine_flows->size();
    figures.engine_request_bytes = crawl->engine_index->request_bytes_total();
  }
  figures.native_requests = capture->native_flows->size();
  figures.native_request_bytes = capture->native_index->request_bytes_total();
  figures.native_ratio =
      NativeRatio(figures.engine_requests, figures.native_requests);
  return figures;
}

double FleetRunStats::JobLatencyQuantile(double q) const {
  if (job_seconds.empty()) return 0;
  std::vector<double> sorted = job_seconds;
  std::sort(sorted.begin(), sorted.end());
  double clamped = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(clamped * (sorted.size() - 1) + 0.5);
  return sorted[rank];
}

std::string_view CampaignKindName(CampaignKind kind) {
  switch (kind) {
    case CampaignKind::kCrawl: return "crawl";
    case CampaignKind::kIncognitoCrawl: return "incognito";
    case CampaignKind::kIdle: return "idle";
  }
  return "?";
}

uint64_t DeriveJobSeed(uint64_t base_seed, std::string_view browser,
                       CampaignKind kind, int shard, int attempt,
                       uint64_t device_fingerprint) {
  // Splitmix chain: each identity component perturbs the state and is
  // diffused before the next one lands. Stable across platforms
  // (FNV-1a + splitmix64, no std::hash).
  uint64_t state = base_seed;
  util::SplitMix64(state);
  state ^= util::HashString(browser);
  util::SplitMix64(state);
  state ^= (static_cast<uint64_t>(kind) + 1) * 0x9E3779B97F4A7C15ull;
  util::SplitMix64(state);
  state ^= static_cast<uint64_t>(shard) + 1;
  state = util::SplitMix64(state);
  // Attempt 0 (pinned by the determinism golden tests) adds nothing;
  // retries diffuse the counter in.
  if (attempt != 0) {
    state ^= static_cast<uint64_t>(attempt) * 0x9E3779B97F4A7C15ull;
    state = util::SplitMix64(state);
  }
  // The paper testbed is the identity element: default-cohort jobs keep
  // the exact pre-population seeds the golden tests pin. Any other
  // profile perturbs the chain, so a cohort sweep never replays the
  // testbed's runtime streams.
  if (device_fingerprint != device::PaperTestbedFingerprint()) {
    state ^= device_fingerprint;
    state = util::SplitMix64(state);
  }
  return state;
}

FleetExecutor::FleetExecutor(FleetOptions options)
    : options_(std::move(options)) {
  if (!options_.cache_dir.empty()) {
    cache_ = std::make_unique<ResultCache>(options_.cache_dir);
  }
}

FleetExecutor::~FleetExecutor() = default;

const std::shared_ptr<const Testbed>& FleetExecutor::testbed() const {
  // Built inside the first job's span, so its cost stays in that job's
  // time rather than in a span of its own.
  std::call_once(testbed_once_, [this] {
    testbed_ = Testbed::Build(
        options_.framework.catalog_seed.value_or(options_.base_seed),
        options_.framework.catalog);
    families_.world_builds.Inc();
  });
  return testbed_;
}

std::vector<FleetJob> FleetExecutor::PlanCampaign(
    const std::vector<browser::BrowserSpec>& browsers,
    const std::vector<CampaignKind>& kinds, int shard_count,
    const CrawlOptions& crawl, const IdleOptions& idle) {
  return PlanCampaign(browsers, {device::DeviceCohort{}}, kinds, shard_count,
                      crawl, idle);
}

std::vector<FleetJob> FleetExecutor::PlanCampaign(
    const std::vector<browser::BrowserSpec>& browsers,
    const std::vector<device::DeviceCohort>& cohorts,
    const std::vector<CampaignKind>& kinds, int shard_count,
    const CrawlOptions& crawl, const IdleOptions& idle) {
  if (cohorts.empty()) {
    return PlanCampaign(browsers, {device::DeviceCohort{}}, kinds, shard_count,
                        crawl, idle);
  }
  if (shard_count < 1) shard_count = 1;
  std::vector<FleetJob> jobs;
  for (const auto& spec : browsers) {
    for (const auto& cohort : cohorts) {
      for (CampaignKind kind : kinds) {
        int shards = kind == CampaignKind::kIdle ? 1 : shard_count;
        for (int shard = 0; shard < shards; ++shard) {
          FleetJob job;
          job.spec = spec;
          job.kind = kind;
          job.shard = shard;
          job.shard_count = shards;
          job.cohort = cohort;
          job.crawl = crawl;
          job.idle = idle;
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

FleetJobResult FleetExecutor::ExecuteJob(const FleetJob& job, int attempt,
                                         obs::Journal* journal) const {
  obs::ScopedSpan span("fleet.job", "fleet");
  span.Arg("browser", job.spec.name);
  span.Arg("kind", CampaignKindName(job.kind));
  span.Arg("shard", static_cast<int64_t>(job.shard));
  if (attempt > 0) span.Arg("attempt", static_cast<int64_t>(attempt));

  FleetJobResult out;
  out.job = job;

  // The job's options, built once and moved into its framework.
  FrameworkOptions fw = options_.framework;
  fw.seed = DeriveJobSeed(options_.base_seed, job.spec.name, job.kind,
                          job.shard, attempt,
                          device::DeviceProfileFingerprint(job.cohort.profile));
  // The job's framework simulates the cohort's device — PII payloads,
  // cadence and endpoints all key off these traits.
  fw.device_profile = job.cohort.profile;
  // All jobs crawl the same generated web (the executor's shared
  // testbed); only the runtime streams (browser jitter, tokens, idle
  // cadence) differ per job.
  if (!fw.catalog_seed.has_value()) fw.catalog_seed = options_.base_seed;
  out.seed = fw.seed;
  // Every capture layer of this job's private framework reports into
  // the per-job journal. Event times are simulated, identity fields
  // are pure functions of the job — nothing scheduling-dependent.
  fw.journal = journal;
  if (journal != nullptr) {
    auto event = journal->Emit(0, "fleet", "job_start");
    event.Str("browser", job.spec.name)
        .Str("campaign", CampaignKindName(job.kind))
        .Num("shard", static_cast<int64_t>(job.shard))
        .Num("shard_count", static_cast<int64_t>(job.shard_count))
        .Num("attempt", static_cast<int64_t>(attempt))
        .U64Hex("seed", fw.seed);
    // Cohort fields only for population jobs: default-cohort journals
    // stay byte-identical to the pre-population format.
    if (!job.cohort.IsDefault()) {
      event.Str("cohort", job.cohort.Label())
          .U64Hex("cohort_id", job.cohort.id)
          .Str("device", job.cohort.profile.model);
    }
  }
  Framework framework(std::move(fw), testbed());

  if (job.kind == CampaignKind::kIdle) {
    IdleOptions idle = job.idle;
    if (options_.watchdog_deadline.millis > 0) {
      idle.watchdog_deadline = options_.watchdog_deadline;
    }
    out.idle = RunIdle(framework, job.spec, idle);
  } else {
    CrawlOptions crawl = job.crawl;
    crawl.incognito = job.kind == CampaignKind::kIncognitoCrawl;
    if (options_.watchdog_deadline.millis > 0) {
      crawl.watchdog_deadline = options_.watchdog_deadline;
    }
    const auto& sites = framework.catalog().sites();
    size_t begin = 0, end = 0;
    ShardRange(sites.size(), job.shard, job.shard_count, &begin, &end);
    std::vector<const web::Site*> shard_sites;
    shard_sites.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) shard_sites.push_back(&sites[i]);
    out.crawl = RunCrawl(framework, job.spec, shard_sites, crawl);
    out.flow_writes_dropped = out.crawl->engine_flows->dropped_writes();
  }
  out.flow_writes_dropped += out.capture()->native_flows->dropped_writes();

  // Copy the fault timeline out while the framework (which owns the
  // injector) is still alive.
  if (framework.chaos() != nullptr) {
    out.faults = framework.chaos()->events();
  }
  out.telemetry = framework.Accounting();
  if (journal != nullptr) {
    journal->Emit(framework.clock().Now().millis, "fleet", "job_finish")
        .Str("browser", job.spec.name)
        .Str("campaign", CampaignKindName(job.kind))
        .Num("shard", static_cast<int64_t>(job.shard))
        .Num("faults", static_cast<uint64_t>(out.faults.size()))
        .Num("flow_writes_dropped", out.flow_writes_dropped);
  }
  return out;
}

FleetJobResult FleetExecutor::ExecuteJobWithRetry(const FleetJob& job,
                                                  obs::Journal* journal) const {
  // Every attempt counts, the failed ones included.
  obs::JobTelemetry telemetry;
  for (int attempt = 0;; ++attempt) {
    FleetJobResult result = ExecuteJob(job, attempt, journal);
    result.attempts = attempt + 1;
    telemetry.Accumulate(result.telemetry);
    if (!JobFailed(result)) {
      result.telemetry = std::move(telemetry);
      return result;
    }
    if (attempt >= options_.max_job_retries) {
      result.quarantined = true;
      if (journal != nullptr) {
        journal->Emit(0, "fleet", "job_quarantined")
            .Str("browser", job.spec.name)
            .Str("campaign", CampaignKindName(job.kind))
            .Num("shard", static_cast<int64_t>(job.shard))
            .Num("attempts", static_cast<int64_t>(result.attempts));
      }
      ++telemetry.quarantined_jobs;
      result.telemetry = std::move(telemetry);
      PANOPTES_LOG(kWarn, "fleet")
          << job.spec.name << "/" << CampaignKindName(job.kind) << " shard "
          << job.shard << " quarantined after " << result.attempts
          << " attempts";
      return result;
    }
    ++telemetry.job_retries;
    if (journal != nullptr) {
      journal->Emit(0, "fleet", "job_retry")
          .Str("browser", job.spec.name)
          .Str("campaign", CampaignKindName(job.kind))
          .Num("shard", static_cast<int64_t>(job.shard))
          .Num("next_attempt", static_cast<int64_t>(attempt + 1));
    }
  }
}

FleetJobResult FleetExecutor::RunJobCached(const FleetJob& job) const {
  // Per-job buffer: single-threaded within the job, merged in plan
  // order afterwards (MergeJournal) — the determinism contract.
  obs::Journal job_journal;
  obs::Journal* journal = options_.journal ? &job_journal : nullptr;
  FleetJobResult result;
  if (cache_ != nullptr) {
    uint64_t fingerprint = ResultCache::FingerprintJob(options_, job);
    // What the cache did for this job, added to whatever it executed.
    obs::JobTelemetry cache_telemetry;
    auto cached = cache_->Load(job, fingerprint,
                               /*skip_quarantined=*/options_.resume,
                               &cache_telemetry);
    if (cached.has_value()) {
      result = std::move(*cached);
      if (journal != nullptr) {
        journal->Emit(0, "fleet", "cache_hit")
            .Str("browser", job.spec.name)
            .Str("campaign", CampaignKindName(job.kind))
            .Num("shard", static_cast<int64_t>(job.shard))
            .U64Hex("fingerprint", fingerprint);
      }
    } else {
      result = ExecuteJobWithRetry(job, journal);
      cache_->Store(result, fingerprint, &cache_telemetry);
    }
    result.telemetry.Accumulate(cache_telemetry);
  } else {
    result = ExecuteJobWithRetry(job, journal);
  }
  result.journal = std::move(job_journal);
  // After the store: by the time the callback observes N completions,
  // N snapshots are durably in place (the crash-simulation contract).
  if (options_.on_job_complete) options_.on_job_complete(result);
  return result;
}

std::vector<FleetJobResult> FleetExecutor::Run(
    const std::vector<FleetJob>& jobs, FleetRunStats* stats) const {
  std::vector<FleetJobResult> results(jobs.size());
  size_t worker_count = options_.jobs < 1 ? 1 : options_.jobs;
  if (worker_count > jobs.size()) worker_count = jobs.size();
  // Every family is registered with the executor, so an empty plan
  // still exports its gauges and counters (at zero): downstream
  // telemetry validation can tell "nothing ran" from "metrics broke".
  if (jobs.empty()) {
    families_.fleet_queue_depth.Set(0);
    if (stats != nullptr) *stats = FleetRunStats{};
    return results;
  }
  obs::ScopedSpan run_span("fleet.run", "fleet");
  run_span.Arg("jobs", static_cast<int64_t>(jobs.size()));
  run_span.Arg("workers", static_cast<int64_t>(worker_count));
  int64_t run_start = util::SteadyNowNanos();

  // Telemetry side-tables: disjoint slots per worker / per job, so the
  // only cross-thread accounting is the fleet gauges and the job-time
  // histogram; each job counts into its own scope.
  std::vector<int> jobs_per_worker(worker_count, 0);
  std::vector<double> job_seconds(jobs.size(), 0.0);
  families_.fleet_queue_depth.Set(static_cast<int64_t>(jobs.size()));

  // Workers claim job indices from a shared counter and write into
  // disjoint slots of `results`; job identity (not scheduling) decides
  // every seed, so the outcome is order-independent by construction.
  std::atomic<size_t> next{0};
  auto work = [&](size_t worker) {
    while (true) {
      size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= jobs.size()) return;
      families_.fleet_queue_depth.Set(
          static_cast<int64_t>(jobs.size() - index - 1));
      families_.fleet_workers_busy.Add(1);
      int64_t start = util::SteadyNowNanos();
      results[index] = RunJobCached(jobs[index]);
      double seconds =
          static_cast<double>(util::SteadyNowNanos() - start) * 1e-9;
      job_seconds[index] = seconds;
      families_.fleet_job_seconds.Observe(seconds);
      families_.fleet_workers_busy.Add(-1);
      ++jobs_per_worker[worker];
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(worker_count);
  for (size_t i = 0; i < worker_count; ++i) pool.emplace_back(work, i);
  for (auto& thread : pool) thread.join();
  families_.fleet_queue_depth.Set(0);

  // One publish per run, folded in plan order: the registry's counters
  // are the same at any worker count.
  obs::JobTelemetry run;
  for (const FleetJobResult& result : results) {
    run.Accumulate(result.telemetry);
  }
  families_.Publish(run);
  families_.fleet_jobs.Inc(jobs.size());

  if (stats != nullptr) {
    stats->workers = static_cast<int>(worker_count);
    stats->wall_seconds =
        static_cast<double>(util::SteadyNowNanos() - run_start) * 1e-9;
    stats->jobs_per_worker = std::move(jobs_per_worker);
    stats->job_seconds = std::move(job_seconds);
  }

  PANOPTES_LOG(kInfo, "fleet")
      << jobs.size() << " jobs over " << worker_count << " workers";
  return results;
}

void FleetExecutor::MergeJournal(const std::vector<FleetJobResult>& results,
                                 obs::Journal* out) {
  if (out == nullptr) return;
  for (const FleetJobResult& result : results) {
    out->Append(result.journal);
  }
}

namespace {

// Whether `next` is a later shard of the crawl group `head` opened.
bool ContinuesGroup(const FleetJobResult& head, const FleetJobResult& next) {
  return head.crawl.has_value() && next.crawl.has_value() &&
         head.job.spec.name == next.job.spec.name &&
         head.job.kind == next.job.kind &&
         head.job.cohort.id == next.job.cohort.id &&
         head.job.cohort.index == next.job.cohort.index &&
         next.job.shard > 0;
}

// Reserves the group that results[head] opens at its summed size, so
// each appended shard lands without reallocating what came before. A
// group of one is left as it is: it appends nothing.
void ReserveGroup(std::vector<FleetJobResult>& results, size_t head) {
  size_t engine_flows = 0, native_flows = 0;
  size_t engine_params = 0, native_params = 0;
  size_t members = 0;
  for (size_t i = head; i < results.size(); ++i) {
    if (results[i].quarantined) continue;
    if (i > head && !ContinuesGroup(results[head], results[i])) break;
    const CrawlResult& crawl = *results[i].crawl;
    engine_flows += crawl.engine_flows->size();
    native_flows += crawl.native_flows->size();
    engine_params += crawl.engine_index->params().size();
    native_params += crawl.native_index->params().size();
    ++members;
  }
  if (members == 1) return;
  CrawlResult& into = *results[head].crawl;
  into.engine_flows->Reserve(engine_flows);
  into.native_flows->Reserve(native_flows);
  into.engine_index->Reserve(engine_flows, engine_params);
  into.native_index->Reserve(native_flows, native_params);
}

}  // namespace

std::vector<FleetJobResult> FleetExecutor::MergeShards(
    std::vector<FleetJobResult> results) {
  std::vector<FleetJobResult> merged;
  uint64_t index_appends = 0;
  obs::JobTelemetry appended;  // flows folded into the merged indexes
  for (size_t i = 0; i < results.size(); ++i) {
    FleetJobResult& result = results[i];
    // Salvage: quarantined shards never reach the findings — the
    // merged result covers the surviving shards only (the run manifest
    // accounts for the gap).
    if (result.quarantined) continue;
    if (merged.empty() || !ContinuesGroup(merged.back(), result)) {
      if (result.crawl.has_value()) ReserveGroup(results, i);
      result.job.shard = 0;
      result.job.shard_count = 1;
      merged.push_back(std::move(result));
      continue;
    }
    CrawlResult& into = *merged.back().crawl;
    CrawlResult& from = *result.crawl;
    index_appends += 2;
    appended.indexed_flows +=
        from.engine_index->flow_count() + from.native_index->flow_count();
    // The merge consumes the shard: stores and indexes move their arena
    // chunks over, so no payload or text byte is copied. Appending
    // interns `from`'s tables in first-appearance order, so each merged
    // index serializes exactly like a Build over its store.
    into.engine_flows->Append(std::move(*from.engine_flows));
    into.native_flows->Append(std::move(*from.native_flows));
    into.engine_index->Append(std::move(*from.engine_index));
    into.native_index->Append(std::move(*from.native_index));
    into.visits.insert(into.visits.end(),
                       std::make_move_iterator(from.visits.begin()),
                       std::make_move_iterator(from.visits.end()));
    into.stack_stats = SumStats(into.stack_stats, from.stack_stats);
    into.fault_injected_flows += from.fault_injected_flows;
    into.ingest.Accumulate(from.ingest);
    into.watchdog_cancelled |= from.watchdog_cancelled;
    merged.back().flow_writes_dropped += result.flow_writes_dropped;
    merged.back().faults.insert(
        merged.back().faults.end(),
        std::make_move_iterator(result.faults.begin()),
        std::make_move_iterator(result.faults.end()));
  }
  obs::Families families;
  families.index_appends.Inc(index_appends);
  families.Publish(appended);
  return merged;
}

}  // namespace panoptes::core
