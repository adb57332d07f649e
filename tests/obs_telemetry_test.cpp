// Per-job telemetry scopes: each job counts into its own plain scope,
// the executor folds them in plan order and publishes the sum once.
#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "browser/profiles.h"
#include "chaos/profile.h"
#include "core/fleet.h"
#include "obs/metrics.h"
#include "util/json.h"

namespace panoptes::core {
namespace {

FleetOptions SmallFleet(int workers) {
  FleetOptions options;
  options.jobs = workers;
  options.framework.catalog.popular_count = 4;
  options.framework.catalog.sensitive_count = 2;
  return options;
}

std::vector<FleetJob> SmallPlan(int visit_retries = 0) {
  CrawlOptions crawl;
  crawl.retry.max_retries = visit_retries;
  IdleOptions idle;
  idle.duration = util::Duration::Minutes(1);
  return FleetExecutor::PlanCampaign(
      {*browser::FindSpec("Yandex"), *browser::FindSpec("Opera")},
      {CampaignKind::kCrawl, CampaignKind::kIdle}, 2, crawl, idle);
}

// The flaky fault preset, with visits and whole jobs retried twice.
FleetOptions FlakyFleet(int workers) {
  FleetOptions options = SmallFleet(workers);
  options.framework.chaos = *chaos::FaultProfile::Named("flaky");
  options.max_job_retries = 2;
  return options;
}

obs::JobTelemetry Fold(const std::vector<FleetJobResult>& results) {
  obs::JobTelemetry fold;
  for (const auto& result : results) fold.Accumulate(result.telemetry);
  return fold;
}

// The names of every counter family `registry` holds.
std::vector<std::string> CounterNames(const obs::MetricsRegistry& registry) {
  std::vector<std::string> names;
  const util::Json json = registry.ToJson();
  for (const auto& [name, metric] : json.as_object()) {
    if (metric.Find("type")->as_string() == "counter") names.push_back(name);
  }
  return names;
}

// A job's scope is a pure function of its plan: the same at 1 and 4
// workers, also when faults retry visits and whole jobs.
TEST(Telemetry, JobScopesAreTheSameAtAnyWorkerCount) {
  for (bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "flaky, max_job_retries 2" : "plain");
    auto run = [&](int workers) {
      return chaos ? FleetExecutor(FlakyFleet(workers)).Run(SmallPlan(2))
                   : FleetExecutor(SmallFleet(workers)).Run(SmallPlan());
    };
    auto one = run(1);
    auto four = run(4);
    ASSERT_EQ(one.size(), four.size());
    for (size_t i = 0; i < one.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(one[i].telemetry, four[i].telemetry);
      EXPECT_GT(one[i].telemetry.proxy_flows, 0u);
      // Without faults every intercepted flow reaches a buffer.
      if (!chaos) {
        EXPECT_EQ(one[i].telemetry.proxy_flows,
                  one[i].telemetry.flows_pushed);
      }
    }
    if (chaos) {
      const obs::JobTelemetry fold = Fold(one);
      EXPECT_GT(fold.faults_injected, 0u);
      EXPECT_GT(fold.dns_failures + fold.tls_failures, 0u);
      EXPECT_GT(fold.visit_retries, 0u);
      EXPECT_EQ(fold.visit_retries, fold.backoff_millis.size());
    }
  }
}

// What Run publishes is exactly the plan-order fold of the scopes it
// returns, whatever the worker count: the default registry reads what
// publishing the fold into a private one reads, plus the run's own
// job count and testbed build.
TEST(Telemetry, RegistryIsThePlanOrderFold) {
  auto& registry = obs::MetricsRegistry::Default();
  uint64_t peak_at_one = 0;
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    registry.Reset();
    auto jobs = SmallPlan(2);
    auto results = FleetExecutor(FlakyFleet(workers)).Run(jobs);
    const obs::JobTelemetry fold = Fold(results);

    obs::MetricsRegistry expected;
    obs::Families families(expected);
    families.Publish(fold);
    families.fleet_jobs.Inc(jobs.size());
    families.world_builds.Inc();
    const std::vector<std::string> names = CounterNames(expected);
    EXPECT_GT(names.size(), 30u);
    for (const std::string& name : names) {
      // Testbed::Build counts its hosts, not a job.
      if (name == "panoptes_net_hosts_registered_total") continue;
      EXPECT_EQ(registry.GetCounter(name).Value(),
                expected.GetCounter(name).Value())
          << name;
    }
    EXPECT_GT(fold.proxy_flows, 0u);
    // The live-bytes gauge is the run's largest peak, not whichever
    // buffer wrote last.
    EXPECT_GT(fold.peak_live_bytes, 0u);
    EXPECT_EQ(registry.GetGauge("panoptes_ingest_live_bytes").Value(),
              static_cast<int64_t>(fold.peak_live_bytes));
    const obs::Histogram& backoff =
        registry.GetHistogram("panoptes_fleet_backoff_delay_seconds");
    const obs::Histogram& expected_backoff =
        expected.GetHistogram("panoptes_fleet_backoff_delay_seconds");
    EXPECT_GT(backoff.Count(), 0u);
    EXPECT_EQ(backoff.Count(), expected_backoff.Count());
    EXPECT_EQ(backoff.Sum(), expected_backoff.Sum());
    EXPECT_EQ(backoff.CumulativeBuckets(),
              expected_backoff.CumulativeBuckets());
    if (workers == 1) peak_at_one = fold.peak_live_bytes;
    EXPECT_EQ(fold.peak_live_bytes, peak_at_one);
  }
}

// A warm replay executes nothing: each job carries only the cache hit
// and one index build per store its snapshot decoded.
TEST(Telemetry, WarmReplayCountsOnlyTheCache) {
  namespace fs = std::filesystem;
  fs::path cache = fs::temp_directory_path() / "panoptes_telemetry_test";
  fs::remove_all(cache);
  FleetOptions options = SmallFleet(4);
  options.cache_dir = cache.string();
  auto jobs = SmallPlan();
  auto cold = FleetExecutor(options).Run(jobs);
  for (const auto& result : cold) {
    EXPECT_EQ(result.telemetry.cache_misses, 1u);
    EXPECT_EQ(result.telemetry.cache_writes, 1u);
    EXPECT_GT(result.telemetry.visits + result.telemetry.idle_ticks, 0u);
  }

  auto& registry = obs::MetricsRegistry::Default();
  registry.Reset();
  auto warm = FleetExecutor(options).Run(jobs);
  ASSERT_EQ(warm.size(), jobs.size());
  uint64_t decoded = 0;
  for (const auto& result : warm) {
    ASSERT_TRUE(result.cache_hit);
    obs::JobTelemetry expected;
    expected.cache_hits = 1;
    expected.index_builds = result.crawl.has_value() ? 2 : 1;
    decoded += expected.index_builds;
    EXPECT_EQ(result.telemetry, expected);
  }
  EXPECT_EQ(registry.GetCounter("panoptes_core_visits_total").Value(), 0u);
  EXPECT_EQ(registry.GetCounter("panoptes_proxy_flows_total").Value(), 0u);
  EXPECT_EQ(registry.GetCounter("panoptes_ingest_flows_pushed_total").Value(),
            0u);
  EXPECT_EQ(registry.GetCounter("panoptes_index_builds_total").Value(),
            decoded);
  EXPECT_EQ(registry.GetCounter("panoptes_cache_hits_total").Value(),
            jobs.size());
  fs::remove_all(cache);
}

// Metrics switched off: the jobs still count into their own scopes, but
// nothing reaches the registry.
TEST(Telemetry, DisabledMetricsPublishNothing) {
  auto& registry = obs::MetricsRegistry::Default();
  registry.Reset();
  obs::SetMetricsEnabled(false);
  auto results = FleetExecutor(SmallFleet(2)).Run(SmallPlan());
  obs::SetMetricsEnabled(true);
  EXPECT_GT(Fold(results).proxy_flows, 0u);
  const std::vector<std::string> names = CounterNames(registry);
  EXPECT_GT(names.size(), 30u);
  for (const std::string& name : names) {
    EXPECT_EQ(registry.GetCounter(name).Value(), 0u) << name;
  }
  EXPECT_EQ(registry.GetGauge("panoptes_ingest_live_bytes").Value(), 0);
}

}  // namespace
}  // namespace panoptes::core
