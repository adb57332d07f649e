// Parallel campaign fleet executor.
//
// The paper's evaluation is embarrassingly parallel: 15 browsers, each
// crawled (plain and incognito) and left idle, with no shared state
// between browsers. The executor shards that work into jobs — one per
// (browser, campaign kind, site shard) — and runs them on a pool of
// worker threads. Each job owns a private Framework seeded from a
// deterministically derived per-job seed: its own simulated clock,
// network (DNS zone with its fault hooks, origin and vendor servers and
// their hit counters, delivery counters), device, proxy, chaos injector
// and flow stores.
//
// The one thing jobs share is the executor's core::Testbed, built once
// by the first job that runs: the generated web (site catalog and every
// rendered landing page), the host table (every hostname's address, DNS
// answer and genuine leaf), the address plan and the latency table.
// Sharing it cannot couple jobs: it is immutable after construction
// (handed out only as shared_ptr<const>), it draws no randomness from
// any job's streams, and it is a pure function of (catalog seed,
// CatalogOptions), which are the same for every job of a run — a job's
// own Framework would have built exactly these bytes. Every per-job
// draw (DNS and server faults included) still happens in the job's own
// network, in the same order. So results are bit-identical to running
// the same job list one at a time on a single thread, regardless of how
// the scheduler interleaves workers. The differential harness
// (tests/core_fleet_test.cpp) pins `Run` to that one-job-at-a-time
// oracle (tests/oracle/serial_fleet.h) and to jobs run on standalone
// Frameworks.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "browser/spec.h"
#include "core/campaign.h"
#include "core/framework.h"
#include "core/testbed.h"
#include "device/population.h"
#include "obs/journal.h"
#include "obs/telemetry.h"

namespace panoptes::core {

class ResultCache;

// The three campaign types of the evaluation (§3.1 crawl, §3.2
// incognito crawl, §3.5 idle run).
enum class CampaignKind { kCrawl, kIncognitoCrawl, kIdle };

std::string_view CampaignKindName(CampaignKind kind);

// Derives the seed for one job from the campaign's base seed. The
// derivation depends only on the job's identity — never on scheduling,
// thread ids or the order other jobs finish — so a fleet run and a
// serial run build byte-identical testbeds for the same job.
//
// `attempt` 0 is the first execution; each retry gets a fresh
// decorrelated seed, still a pure function of job identity + attempt
// counter. `device_fingerprint` (device::DeviceProfileFingerprint) folds
// the job's device profile into the chain so two cohorts of the same
// browser×kind×shard never share a runtime stream. Both defaults are
// identity elements: attempt 0 and the paper testbed's fingerprint
// leave the identity-only seed unchanged, keeping every pinned golden
// seed valid.
uint64_t DeriveJobSeed(
    uint64_t base_seed, std::string_view browser, CampaignKind kind,
    int shard, int attempt = 0,
    uint64_t device_fingerprint = device::PaperTestbedFingerprint());

// One unit of fleet work: a browser × device cohort × campaign kind ×
// site shard. Crawl shards split the catalog into `shard_count`
// contiguous ranges (shard s visits sites [s*n/count, (s+1)*n/count));
// idle runs never shard (the 10-minute timeline is indivisible). The
// default cohort (id 0) is the paper testbed: such jobs execute and
// report exactly like the pre-population scheme.
struct FleetJob {
  browser::BrowserSpec spec;
  CampaignKind kind = CampaignKind::kCrawl;
  int shard = 0;
  int shard_count = 1;
  device::DeviceCohort cohort;  // the synthetic user this job simulates
  CrawlOptions crawl;  // crawl kinds; `incognito` is set from `kind`
  IdleOptions idle;    // idle kind
};

// A job's headline figures as every fleet report prints them: Fig 2's
// engine/native request split and native ratio, Fig 4's request bytes.
// All zero for a job with no capture; an idle job has no engine side.
struct JobFigures {
  uint64_t engine_requests = 0;
  uint64_t native_requests = 0;
  uint64_t engine_request_bytes = 0;
  uint64_t native_request_bytes = 0;
  double native_ratio = 0;
};

struct FleetJobResult {
  FleetJob job;
  uint64_t seed = 0;  // the derived per-job seed, for provenance
  // Exactly one is set for an executed or replayed job, by job.kind.
  std::optional<CrawlResult> crawl;
  std::optional<IdleResult> idle;
  // Self-healing accounting (run manifest): executions this job took
  // (1 = no retry), whether it was quarantined after exhausting the
  // retry budget, the fault timeline its injector produced on the
  // final attempt, and flow-database writes lost to injected faults.
  int attempts = 1;
  bool quarantined = false;
  std::vector<chaos::FaultEvent> faults;
  uint64_t flow_writes_dropped = 0;
  // True when this result was replayed from a result-cache snapshot
  // instead of executing (never serialized; set at load time).
  bool cache_hit = false;
  // Observatory events this job emitted (FleetOptions::journal). Never
  // serialized into snapshots; a replayed job carries only its
  // cache_hit event. Merged in plan order by MergeJournal, so the
  // merged journal is byte-identical at any worker count.
  obs::Journal journal;
  // What the job counted, summed over its attempts (a replayed job
  // carries only the cache hit and the indexes it decoded). Never
  // serialized; Run folds every job's scope in plan order and publishes
  // the sum once.
  obs::JobTelemetry telemetry;

  // The capture both campaign kinds share: whichever of crawl / idle is
  // set, or null when neither is.
  const CaptureResult* capture() const {
    if (crawl.has_value()) return &*crawl;
    if (idle.has_value()) return &*idle;
    return nullptr;
  }
  // The one definition of a job's report figures.
  JobFigures Figures() const;
};

struct FleetOptions {
  // Worker threads. 1 still goes through the pool.
  int jobs = 1;
  uint64_t base_seed = 20231024;
  // Template for every job's framework; `seed` is overwritten per job.
  FrameworkOptions framework;
  // Job-level self-healing: a job whose every visit failed is re-run
  // up to this many extra times, each attempt with a fresh derived
  // seed; a job still dead after the budget is quarantined (reported
  // in the run manifest, excluded from merged findings).
  int max_job_retries = 0;
  // Per-job watchdog: when non-zero, every campaign is cancelled once
  // its *simulated* timeline exceeds this deadline (chaos timeouts and
  // retry backoff can stretch a wedged job arbitrarily). A cancelled
  // job counts as failed and goes through the same retry/quarantine
  // machinery as a dead one. Overrides the per-job campaign options.
  util::Duration watchdog_deadline{0};
  // Result cache directory (core/result_cache.h). Empty disables
  // caching: every job executes. Non-empty: completed jobs persist as
  // fingerprinted snapshots and matching snapshots replay instead of
  // executing.
  std::string cache_dir;
  // Resume semantics for a cache-backed run: cached *quarantined* jobs
  // re-execute (a restarted run gives dead jobs a fresh chance) instead
  // of replaying the recorded failure. Plain warm runs leave this off
  // so a completed run replays byte-identically, quarantines included.
  bool resume = false;
  // Invoked after each job completes (executed and persisted, or
  // replayed from cache), from whichever worker thread ran it. Used by
  // the CLI's crash-simulation flag; never affects results.
  std::function<void(const FleetJobResult&)> on_job_complete;
  // Observatory: when true every job records structured events (job
  // start/finish/retry/quarantine/cache-hit, visits, faults, flows)
  // into a private per-job journal, returned in
  // FleetJobResult::journal. Strictly additive — reports and
  // snapshots are byte-identical with this on or off.
  bool journal = false;
};

// Wall-clock accounting for one Run call. Telemetry only —
// timings are steady-clock and scheduling-dependent, so none of this
// may ever flow into an exported report (determinism contract).
struct FleetRunStats {
  int workers = 0;
  double wall_seconds = 0;
  // Jobs each worker completed, indexed by worker.
  std::vector<int> jobs_per_worker;
  // Per-job execution time, indexed like the job list (plan order).
  std::vector<double> job_seconds;

  // Latency quantile over job_seconds (q in [0,1], nearest-rank);
  // 0 when no jobs ran.
  double JobLatencyQuantile(double q) const;
};

class FleetExecutor {
 public:
  explicit FleetExecutor(FleetOptions options);
  ~FleetExecutor();

  const FleetOptions& options() const { return options_; }

  // Null when options.cache_dir is empty.
  const ResultCache* cache() const { return cache_.get(); }

  // The testbed every job of this executor runs on (the generated web
  // and its host table), built on first use — by the first job that
  // executes, so a run whose every job replays from the cache builds
  // none. A pure function of the catalog seed and CatalogOptions, which
  // every cache fingerprint includes.
  const std::shared_ptr<const Testbed>& testbed() const;

  // Runs every job on `options.jobs` worker threads. Results come back
  // indexed exactly like `jobs`, independent of scheduling. When
  // `stats` is given it is filled with this run's wall-clock telemetry.
  // Every job's telemetry scope is folded in plan order and published
  // to the default metrics registry once, before Run returns.
  std::vector<FleetJobResult> Run(const std::vector<FleetJob>& jobs,
                                  FleetRunStats* stats = nullptr) const;

  // Run without holding the results: each job's result goes to `sink`
  // with its plan index, on the worker that ran the job, as soon as the
  // job completes, so a caller that analyses each result and drops it
  // holds at most one capture per worker. `sink` runs on up to
  // options.jobs threads at once and must write only state keyed by the
  // index it is given. Telemetry and `stats` are as for Run.
  using ResultSink = std::function<void(size_t index, FleetJobResult&&)>;
  void RunEach(const std::vector<FleetJob>& jobs, const ResultSink& sink,
               FleetRunStats* stats = nullptr) const;

  // Expands browsers × cohorts × kinds × shards into the canonical job
  // list: browsers in the given (Table 1) order, cohorts in population
  // (index) order nested inside each browser, kinds in the given order,
  // shards ascending. Idle kinds always get a single shard. An empty
  // cohort list plans the single default (paper testbed) cohort, as
  // does the overload without cohorts.
  static std::vector<FleetJob> PlanCampaign(
      const std::vector<browser::BrowserSpec>& browsers,
      const std::vector<CampaignKind>& kinds, int shard_count,
      const CrawlOptions& crawl = {}, const IdleOptions& idle = {});
  static std::vector<FleetJob> PlanCampaign(
      const std::vector<browser::BrowserSpec>& browsers,
      const std::vector<device::DeviceCohort>& cohorts,
      const std::vector<CampaignKind>& kinds, int shard_count,
      const CrawlOptions& crawl = {}, const IdleOptions& idle = {});

  // Folds shard results of the same (browser, kind) back into one
  // per-browser result: flows appended in shard order (contiguous
  // shards ⇒ catalog order), visits concatenated, stack stats summed.
  // The index appends are published to the default registry.
  // Quarantined shards are skipped (salvage: the merged result covers
  // the surviving shards only — degraded, never fabricated). Input must
  // be in PlanCampaign order; merged entries report shard = 0,
  // shard_count = 1.
  static std::vector<FleetJobResult> MergeShards(
      std::vector<FleetJobResult> results);

  // Folds every job's journal into `out` in plan order (the
  // order `results` came back from Run — call before
  // MergeShards, which drops per-job identity). Deterministic at any
  // worker count because each job's buffer is private and complete.
  static void MergeJournal(const std::vector<FleetJobResult>& results,
                           obs::Journal* out);

 private:
  FleetJobResult ExecuteJob(const FleetJob& job, int attempt,
                            obs::Journal* journal) const;
  // Runs the job, re-running with fresh attempt seeds while every
  // visit fails, up to options.max_job_retries; quarantines after.
  FleetJobResult ExecuteJobWithRetry(const FleetJob& job,
                                     obs::Journal* journal) const;
  // The cache-aware path every job of Run goes through: probe the
  // cache (when enabled), execute on a miss, persist the fresh result,
  // then fire options.on_job_complete.
  FleetJobResult RunJobCached(const FleetJob& job) const;

  FleetOptions options_;
  obs::Families families_;  // resolved once; Run publishes through it
  std::unique_ptr<ResultCache> cache_;
  mutable std::once_flag testbed_once_;
  mutable std::shared_ptr<const Testbed> testbed_;
};

}  // namespace panoptes::core
