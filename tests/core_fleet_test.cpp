// FleetExecutor: the determinism-first differential harness.
//
// The permanent guardrail for all parallelism work: a fleet run at
// jobs=4 must produce byte-identical exported reports to the serial
// reference path for the same base seed, no matter how the scheduler
// interleaves the workers.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <stdexcept>

#include "analysis/export.h"
#include "analysis/flow_index.h"
#include "analysis/report.h"
#include "browser/profiles.h"
#include "chaos/profile.h"
#include "core/fleet.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "oracle/serial_fleet.h"
#include "util/binio.h"
#include "util/rng.h"

namespace panoptes::core {
namespace {

FleetOptions TinyFleet(int jobs) {
  FleetOptions options;
  options.jobs = jobs;
  options.framework.catalog.popular_count = 4;
  options.framework.catalog.sensitive_count = 2;
  return options;
}

std::vector<browser::BrowserSpec> Browsers(
    std::initializer_list<std::string_view> names) {
  std::vector<browser::BrowserSpec> specs;
  for (auto name : names) specs.push_back(*browser::FindSpec(name));
  return specs;
}

IdleOptions ShortIdle() {
  IdleOptions idle;
  idle.duration = util::Duration::Minutes(1);
  return idle;
}

TEST(FleetSeed, DependsOnEveryIdentityComponent) {
  uint64_t base = DeriveJobSeed(1, "Yandex", CampaignKind::kCrawl, 0);
  EXPECT_NE(base, DeriveJobSeed(2, "Yandex", CampaignKind::kCrawl, 0));
  EXPECT_NE(base, DeriveJobSeed(1, "Opera", CampaignKind::kCrawl, 0));
  EXPECT_NE(base,
            DeriveJobSeed(1, "Yandex", CampaignKind::kIncognitoCrawl, 0));
  EXPECT_NE(base, DeriveJobSeed(1, "Yandex", CampaignKind::kCrawl, 1));
  // And is a pure function of those components.
  EXPECT_EQ(base, DeriveJobSeed(1, "Yandex", CampaignKind::kCrawl, 0));
}

TEST(FleetPlan, CanonicalOrderAndIdleNeverShards) {
  auto jobs = FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "Opera"}),
      {CampaignKind::kCrawl, CampaignKind::kIdle}, 3);
  // Per browser: 3 crawl shards + 1 idle job.
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].spec.name, "Yandex");
  EXPECT_EQ(jobs[0].kind, CampaignKind::kCrawl);
  EXPECT_EQ(jobs[2].shard, 2);
  EXPECT_EQ(jobs[3].kind, CampaignKind::kIdle);
  EXPECT_EQ(jobs[3].shard_count, 1);
  EXPECT_EQ(jobs[4].spec.name, "Opera");

  // Both overloads plan the default (paper testbed) cohort when given
  // no cohorts, job for job.
  auto cohort_form = FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "Opera"}), {},
      {CampaignKind::kCrawl, CampaignKind::kIdle}, 3);
  ASSERT_EQ(cohort_form.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(jobs[i].cohort.IsDefault()) << i;
    EXPECT_EQ(cohort_form[i].spec.name, jobs[i].spec.name) << i;
    EXPECT_EQ(cohort_form[i].kind, jobs[i].kind) << i;
    EXPECT_EQ(cohort_form[i].shard, jobs[i].shard) << i;
    EXPECT_EQ(cohort_form[i].shard_count, jobs[i].shard_count) << i;
    EXPECT_TRUE(cohort_form[i].cohort.IsDefault()) << i;
  }
}

// The acceptance-criteria test: fleet(jobs=4) vs the serial loop,
// compared byte-for-byte on the exported analysis JSON.
TEST(FleetDifferential, ParallelMatchesSerialByteForByte) {
  FleetExecutor executor(TinyFleet(4));
  auto jobs = FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "Opera", "DuckDuckGo"}),
      {CampaignKind::kCrawl, CampaignKind::kIncognitoCrawl,
       CampaignKind::kIdle},
      2, CrawlOptions{}, ShortIdle());

  auto serial = oracle::RunSerial(executor, jobs);
  auto parallel = executor.Run(jobs);
  ASSERT_EQ(serial.size(), parallel.size());

  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].job.spec.name + "/" +
                 std::string(CampaignKindName(serial[i].job.kind)) +
                 "/shard" + std::to_string(serial[i].job.shard));
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    ASSERT_EQ(serial[i].crawl.has_value(), parallel[i].crawl.has_value());
    if (serial[i].crawl.has_value()) {
      EXPECT_EQ(serial[i].crawl->EngineRequestCount(),
                parallel[i].crawl->EngineRequestCount());
      EXPECT_EQ(serial[i].crawl->NativeRequestCount(),
                parallel[i].crawl->NativeRequestCount());
      EXPECT_EQ(serial[i].crawl->visits.size(),
                parallel[i].crawl->visits.size());
    }
    if (serial[i].idle.has_value()) {
      EXPECT_EQ(serial[i].idle->cumulative_by_bucket,
                parallel[i].idle->cumulative_by_bucket);
    }
  }

  auto serial_merged = FleetExecutor::MergeShards(std::move(serial));
  auto parallel_merged = FleetExecutor::MergeShards(std::move(parallel));
  EXPECT_EQ(analysis::FleetReportJson(serial_merged),
            analysis::FleetReportJson(parallel_merged));
  EXPECT_EQ(analysis::FleetSummaryCsv(serial_merged),
            analysis::FleetSummaryCsv(parallel_merged));
  EXPECT_EQ(analysis::FleetSummaryTable(serial_merged),
            analysis::FleetSummaryTable(parallel_merged));
}

TEST(FleetMerge, ShardsFoldBackIntoCatalogOrder) {
  FleetExecutor executor(TinyFleet(2));
  auto jobs = FleetExecutor::PlanCampaign(Browsers({"Samsung"}),
                                          {CampaignKind::kCrawl}, 3);
  auto merged = FleetExecutor::MergeShards(executor.Run(jobs));
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_TRUE(merged[0].crawl.has_value());

  // The merged visit list is exactly the catalog, in catalog order:
  // contiguous shards partition the site list without loss or overlap.
  Framework probe(executor.options().framework);
  const auto& sites = probe.catalog().sites();
  ASSERT_EQ(merged[0].crawl->visits.size(), sites.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(merged[0].crawl->visits[i].hostname, sites[i].hostname);
  }

  // Merged flow totals are the sum of the per-shard stores.
  auto per_shard = executor.Run(jobs);
  uint64_t engine = 0, native = 0, sends = 0;
  for (const auto& shard : per_shard) {
    engine += shard.crawl->EngineRequestCount();
    native += shard.crawl->NativeRequestCount();
    sends += shard.crawl->stack_stats.sends;
  }
  EXPECT_EQ(merged[0].crawl->EngineRequestCount(), engine);
  EXPECT_EQ(merged[0].crawl->NativeRequestCount(), native);
  EXPECT_EQ(merged[0].crawl->stack_stats.sends, sends);
}

std::string IndexBytes(const analysis::FlowIndex& index) {
  util::BinWriter out;
  index.SerializeTo(out);
  return out.Take();
}

// Shards fold their indexes in place: every merged index must encode
// exactly like one built from scratch over its merged store. Bounce
// chains and link decoration (the --smuggling knobs) put redirect
// provenance and decorated query parameters into every shard.
TEST(FleetMerge, MergedIndexesEqualABuildOverTheMergedStores) {
  for (uint64_t seed : {20231024ull, 20240521ull}) {
    SCOPED_TRACE(seed);
    FleetOptions options = TinyFleet(3);
    options.base_seed = seed;
    options.framework.catalog.sitegen.bounce_fraction = 0.5;
    options.framework.catalog.sitegen.decoration_fraction = 0.5;
    auto jobs = FleetExecutor::PlanCampaign(
        Browsers({"Yandex", "Opera"}),
        {CampaignKind::kCrawl, CampaignKind::kIncognitoCrawl}, 3);
    auto merged =
        FleetExecutor::MergeShards(FleetExecutor(options).Run(jobs));
    ASSERT_EQ(merged.size(), 4u);
    for (const auto& result : merged) {
      ASSERT_TRUE(result.crawl.has_value());
      for (const auto& side : result.crawl->Sides()) {
        SCOPED_TRACE(result.job.spec.name + "/" +
                     std::string(CampaignKindName(result.job.kind)) +
                     (side.engine ? "/engine" : "/native"));
        EXPECT_FALSE(side.flows.empty());
        EXPECT_EQ(IndexBytes(side.index),
                  IndexBytes(analysis::FlowIndex::Build(side.flows)));
      }
    }
  }
}

// Stress: the full Table 1 roster × 3 shards at jobs=8, repeatedly.
// Any scheduling-dependent state (shared RNG, store cross-talk, seed
// derivation from execution order) shows up as run-to-run drift here.
TEST(FleetStress, FullRosterRepeatedRunsAreIdentical) {
  FleetOptions options = TinyFleet(8);
  options.framework.catalog.popular_count = 3;
  options.framework.catalog.sensitive_count = 0;
  FleetExecutor executor(options);
  auto jobs = FleetExecutor::PlanCampaign(browser::AllBrowserSpecs(),
                                          {CampaignKind::kCrawl}, 3);
  ASSERT_EQ(jobs.size(), browser::AllBrowserSpecs().size() * 3);

  std::string reference;
  for (int repeat = 0; repeat < 3; ++repeat) {
    SCOPED_TRACE("repeat " + std::to_string(repeat));
    auto merged = FleetExecutor::MergeShards(executor.Run(jobs));
    std::string json = analysis::FleetReportJson(merged);
    if (repeat == 0) {
      reference = std::move(json);
      // One merged result per browser, in Table 1 order.
      ASSERT_EQ(merged.size(), browser::AllBrowserSpecs().size());
    } else {
      EXPECT_EQ(json, reference);
    }
  }
}

// Regression: the quantile helper on a stats object that never ran a
// job must return 0, not index into an empty vector.
TEST(FleetStats, JobLatencyQuantileOnEmptyStatsIsZero) {
  FleetRunStats stats;
  EXPECT_EQ(stats.JobLatencyQuantile(0.0), 0.0);
  EXPECT_EQ(stats.JobLatencyQuantile(0.5), 0.0);
  EXPECT_EQ(stats.JobLatencyQuantile(1.0), 0.0);
}

// Salvage: a quarantined shard is dropped from the merge and the
// surviving shards still fold into one degraded-but-genuine result.
TEST(FleetMerge, QuarantinedShardsAreSalvagedAround) {
  FleetExecutor executor(TinyFleet(2));
  auto jobs = FleetExecutor::PlanCampaign(Browsers({"Samsung"}),
                                          {CampaignKind::kCrawl}, 3);
  auto results = executor.Run(jobs);
  ASSERT_EQ(results.size(), 3u);

  // Quarantine the middle shard, then shard 0 — exercising both the
  // "skip mid-group" and "surviving shard becomes the group head"
  // paths.
  for (int dead : {1, 0}) {
    auto damaged = executor.Run(jobs);
    damaged[dead].quarantined = true;
    auto merged = FleetExecutor::MergeShards(std::move(damaged));
    ASSERT_EQ(merged.size(), 1u);
    ASSERT_TRUE(merged[0].crawl.has_value());

    size_t surviving_visits = 0;
    uint64_t surviving_engine = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (static_cast<int>(i) == dead) continue;
      surviving_visits += results[i].crawl->visits.size();
      surviving_engine += results[i].crawl->EngineRequestCount();
    }
    EXPECT_EQ(merged[0].crawl->visits.size(), surviving_visits);
    EXPECT_EQ(merged[0].crawl->EngineRequestCount(), surviving_engine);
    EXPECT_FALSE(merged[0].quarantined);
  }
}

TEST(FleetSeed, JobSeedsAreDistinctAcrossThePlan) {
  auto jobs = FleetExecutor::PlanCampaign(
      browser::AllBrowserSpecs(),
      {CampaignKind::kCrawl, CampaignKind::kIncognitoCrawl,
       CampaignKind::kIdle},
      4);
  std::set<uint64_t> seeds;
  for (const auto& job : jobs) {
    seeds.insert(DeriveJobSeed(20231024, job.spec.name, job.kind, job.shard));
  }
  EXPECT_EQ(seeds.size(), jobs.size());
}


// --- the shared, read-only testbed (web::World + host table) ---

// 2 browsers x crawl+idle x 2 shards under a fault profile ("flaky"
// unless named), with bounce tracking on so landing pages redirect
// through trackers.
FleetOptions SharedWorldFleet(int jobs, std::string_view profile = "flaky") {
  FleetOptions options = TinyFleet(jobs);
  options.framework.chaos = *chaos::FaultProfile::Named(profile);
  options.framework.catalog.sitegen.bounce_fraction = 0.5;
  return options;
}

std::vector<FleetJob> SharedWorldPlan() {
  return FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "DuckDuckGo"}),
      {CampaignKind::kCrawl, CampaignKind::kIdle}, 2, CrawlOptions{},
      ShortIdle());
}

// The oracle: one job on a standalone Framework that generates its own
// web, with the executor's seed derivation and shard split re-done by
// hand (first attempt, paper-testbed cohort).
FleetJobResult RunStandalone(const FleetOptions& options,
                             const FleetJob& job) {
  FrameworkOptions fw = options.framework;
  fw.seed = DeriveJobSeed(options.base_seed, job.spec.name, job.kind,
                          job.shard);
  fw.device_profile = job.cohort.profile;
  fw.catalog_seed = options.base_seed;
  Framework framework(fw);

  FleetJobResult out;
  out.job = job;
  out.seed = fw.seed;
  if (job.kind == CampaignKind::kIdle) {
    out.idle = RunIdle(framework, job.spec, job.idle);
    out.flow_writes_dropped = out.idle->native_flows->dropped_writes();
  } else {
    const auto& sites = framework.catalog().sites();
    size_t begin = sites.size() * job.shard / job.shard_count;
    size_t end = sites.size() * (job.shard + 1) / job.shard_count;
    std::vector<const web::Site*> shard_sites;
    for (size_t i = begin; i < end; ++i) shard_sites.push_back(&sites[i]);
    out.crawl = RunCrawl(framework, job.spec, shard_sites, job.crawl);
    out.flow_writes_dropped = out.crawl->engine_flows->dropped_writes() +
                              out.crawl->native_flows->dropped_writes();
  }
  out.faults = framework.chaos()->events();
  return out;
}

// FNV-1a over every field of every site plus its landing HTML.
uint64_t WorldHash(const web::World& world) {
  std::string bytes;
  auto add = [&bytes](std::string_view field) {
    bytes.append(field);
    bytes.push_back('\0');
  };
  for (size_t i = 0; i < world.size(); ++i) {
    const web::Site& site = world.site(i);
    add(site.hostname);
    add(web::SiteCategoryName(site.category));
    add(std::to_string(site.rank));
    add(site.landing_url.Serialize());
    add(std::to_string(site.document_size));
    for (const auto& resource : site.resources) {
      add(resource.url.Serialize());
      add(web::ResourceTypeName(resource.type));
      add(std::to_string(resource.body_size));
      add(std::to_string(resource.third_party * 2 + resource.ad_related));
    }
    add(std::to_string(site.supports_h3 * 8 + site.plain_http * 4 +
                       site.bounce_tracking * 2 + site.link_decoration));
    for (const auto& host : site.bounce_hosts) add(host);
    add(site.smuggle_uid);
    add(world.landing_html(i));
  }
  return util::HashString(bytes);
}

// A testbed build is run-level work, not any one job's (which job builds
// it depends on scheduling), so the executor publishes it itself.
uint64_t WorldBuilds() {
  return obs::MetricsRegistry::Default()
      .GetCounter("panoptes_fleet_world_builds_total")
      .Value();
}

// Every per-job fault draw happens in the job's own network, so fleet
// jobs on the shared testbed replay a standalone framework's faults
// exactly: DNS faults ("dns-storm"), origin and vendor 5xx episodes
// ("vendor-5xx") and a mix of everything ("flaky").
TEST(SharedWorld, FleetJobsMatchStandaloneFrameworksByteForByte) {
  auto jobs = SharedWorldPlan();
  ASSERT_EQ(jobs.size(), 6u);
  const std::pair<std::string_view, chaos::FaultKind> profiles[] = {
      {"flaky", chaos::FaultKind::kServerError},
      {"dns-storm", chaos::FaultKind::kDnsFailure},
      {"vendor-5xx", chaos::FaultKind::kServerError},
  };
  for (const auto& [profile, signature] : profiles) {
    SCOPED_TRACE(std::string(profile));
    std::vector<std::string> standalone;
    for (const auto& job : jobs) {
      FleetJobResult result = RunStandalone(SharedWorldFleet(1, profile), job);
      standalone.push_back(snapshot::Write(result, /*fingerprint=*/0));
    }
    for (int workers : {1, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      FleetExecutor executor(SharedWorldFleet(workers, profile));
      auto results = executor.Run(jobs);
      ASSERT_EQ(results.size(), jobs.size());
      size_t fired = 0;
      for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].spec.name + "/" +
                     std::string(CampaignKindName(jobs[i].kind)) + "/shard" +
                     std::to_string(jobs[i].shard));
        ASSERT_EQ(results[i].attempts, 1);
        ASSERT_FALSE(results[i].quarantined);
        for (const auto& fault : results[i].faults) {
          fired += fault.kind == signature;
        }
        EXPECT_EQ(snapshot::Write(results[i], 0), standalone[i]);
      }
      // The profile's own fault must actually have fired, or the
      // comparison says nothing about per-job injector state.
      EXPECT_GT(fired, 0u);
    }
  }
}

TEST(SharedWorld, WorldIsUnchangedByAConcurrentRun) {
  FleetExecutor executor(SharedWorldFleet(4));
  std::shared_ptr<const Testbed> testbed = executor.testbed();
  const web::World& world = *testbed->world();
  uint64_t before = WorldHash(world);
  auto results = executor.Run(SharedWorldPlan());
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(executor.testbed(), testbed);  // the same instance, not a rebuild
  EXPECT_EQ(WorldHash(world), before);
  // And it is exactly the web a standalone framework would generate.
  const FleetOptions& options = executor.options();
  EXPECT_EQ(WorldHash(*web::World::Build(options.base_seed,
                                         options.framework.catalog)),
            before);
}

TEST(SharedWorld, FrameworkRejectsAMismatchedWorld) {
  FrameworkOptions fw;
  fw.catalog.popular_count = 3;
  fw.catalog.sensitive_count = 1;
  fw.catalog_seed = 7;
  // The matching testbed installs, and the framework serves its world.
  auto testbed = Testbed::Build(7, fw.catalog);
  Framework framework(fw, testbed);
  EXPECT_EQ(framework.testbed(), testbed);
  EXPECT_EQ(framework.world(), testbed->world());

  EXPECT_THROW(Framework(fw, Testbed::Build(8, fw.catalog)),
               std::invalid_argument);
  web::CatalogOptions more_sites = fw.catalog;
  more_sites.popular_count = 4;
  EXPECT_THROW(Framework(fw, Testbed::Build(7, more_sites)),
               std::invalid_argument);
  web::CatalogOptions other_sitegen = fw.catalog;
  other_sitegen.sitegen.h3_fraction = 0.9;
  EXPECT_THROW(Framework(fw, Testbed::Build(7, other_sitegen)),
               std::invalid_argument);
  EXPECT_THROW(Framework(fw, nullptr), std::invalid_argument);
  // Without catalog_seed the web follows the framework seed.
  fw.catalog_seed.reset();
  fw.seed = 7;
  EXPECT_NO_THROW(Framework(fw, testbed));
}

TEST(SharedWorld, BuiltOncePerExecutorAndNeverOnAWarmReplay) {
  namespace fs = std::filesystem;
  fs::path cache = fs::temp_directory_path() / "panoptes_shared_world_test";
  fs::remove_all(cache);
  auto jobs = SharedWorldPlan();
  FleetOptions options = SharedWorldFleet(4);
  options.cache_dir = cache.string();

  uint64_t start = WorldBuilds();
  {
    FleetExecutor cold(options);
    cold.Run(jobs);
    EXPECT_EQ(WorldBuilds() - start, 1u);
    // A second run on the same executor reuses its world.
    cold.Run(jobs);
    EXPECT_EQ(WorldBuilds() - start, 1u);
  }
  // Every job replays from the cache: nothing executes, nothing builds.
  FleetExecutor warm(options);
  auto replayed = warm.Run(jobs);
  for (const auto& result : replayed) EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(WorldBuilds() - start, 1u);
  fs::remove_all(cache);
}

// The work sized bodies removed, as an exact counter: a fleet's web
// servers allocate only the landing HTML, the bids' JSON heads and error
// bodies, never the filler that makes up almost all response bytes.
TEST(SharedWorld, ServersMaterializeOnlyTheBodiesClientsRead) {
  auto jobs = FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "DuckDuckGo"}),
      {CampaignKind::kCrawl, CampaignKind::kIdle}, 2, CrawlOptions{},
      ShortIdle());
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    uint64_t builds = WorldBuilds();
    FleetExecutor executor(TinyFleet(workers));
    auto results = executor.Run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    EXPECT_EQ(WorldBuilds() - builds, 1u);
    // The jobs' own counts, summed.
    uint64_t materialized = 0;
    uint64_t response_bytes = 0;
    for (const auto& result : results) {
      materialized += result.telemetry.body_bytes_materialized;
      response_bytes += result.telemetry.response_bytes;
    }

    // Each crawl job loads its shard's landing pages once.
    const web::World& world = *executor.testbed()->world();
    uint64_t landing_bytes = 0;
    for (const auto& job : jobs) {
      if (job.kind != CampaignKind::kCrawl) continue;
      size_t begin = world.size() * job.shard / job.shard_count;
      size_t end = world.size() * (job.shard + 1) / job.shard_count;
      for (size_t i = begin; i < end; ++i) {
        landing_bytes += world.landing_html(i).size();
      }
    }
    // The rest is bid heads and error bodies: under 2% on top.
    EXPECT_GE(materialized, landing_bytes);
    EXPECT_LT(materialized, landing_bytes + landing_bytes / 50);
    // Nearly all response bytes are sized filler, never allocated.
    EXPECT_LT(materialized * 20, response_bytes);

    // Exact: a function of the plan, whatever the worker count.
    EXPECT_EQ(materialized, 730'080u);
  }
}

}  // namespace
}  // namespace panoptes::core
