// Chaos fabric: deterministic fault injection and the self-healing
// fleet around it.
//
// The guardrails: (1) identical (base_seed, fault_profile) replays an
// identical fault timeline regardless of worker count — chaos must not
// break the differential-determinism contract; (2) injected faults can
// degrade a run but never fabricate findings — no chaos-synthesized
// flow reaches a findings store; (3) retries are bounded and never
// double-count traffic; (4) every degraded visit/job is accounted in
// the run manifest.
#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/export.h"
#include "browser/profiles.h"
#include "chaos/injector.h"
#include "chaos/profile.h"
#include "core/campaign.h"
#include "core/fleet.h"
#include "core/framework.h"
#include "core/run_manifest.h"
#include "net/url.h"
#include "obs/telemetry.h"
#include "proxy/flowstore.h"

namespace panoptes {
namespace {

TEST(ChaosProfile, NamedPresetsResolveAndUnknownDoesNot) {
  for (const auto& name : chaos::FaultProfile::NamedProfiles()) {
    auto profile = chaos::FaultProfile::Named(name);
    ASSERT_TRUE(profile.has_value()) << name;
    EXPECT_EQ(profile->name, name);
  }
  EXPECT_FALSE(chaos::FaultProfile::Named("full-moon").has_value());
  // "none" is the only disabled preset.
  EXPECT_FALSE(chaos::FaultProfile::Named("none")->Enabled());
  EXPECT_TRUE(chaos::FaultProfile::Named("flaky")->Enabled());
}

TEST(ChaosProfile, JsonRoundTripPreservesFingerprint) {
  auto flaky = chaos::FaultProfile::Named("flaky");
  auto parsed = chaos::FaultProfile::FromJson(flaky->ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Fingerprint(), flaky->Fingerprint());
  EXPECT_EQ(parsed->ToJson(), flaky->ToJson());
}

TEST(ChaosProfile, RejectsOutOfRangeProbabilities) {
  EXPECT_FALSE(
      chaos::FaultProfile::FromJson(R"({"dns_failure_p":1.5})").has_value());
  EXPECT_FALSE(
      chaos::FaultProfile::FromJson(R"({"tls_drop_p":-0.1})").has_value());
  EXPECT_TRUE(
      chaos::FaultProfile::FromJson(R"({"dns_failure_p":0.5})").has_value());
}

TEST(ChaosProfile, DistinctProfilesHaveDistinctFingerprints) {
  auto a = chaos::FaultProfile::Named("flaky");
  auto b = chaos::FaultProfile::Named("dns-storm");
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
}

TEST(ChaosProfile, HostPatternMatching) {
  EXPECT_TRUE(chaos::HostMatchesAny("anything.example", {"*"}));
  EXPECT_TRUE(chaos::HostMatchesAny("mail.ru", {"*.ru"}));
  EXPECT_TRUE(chaos::HostMatchesAny("sub.mail.ru", {"*.ru"}));
  EXPECT_TRUE(chaos::HostMatchesAny("ru", {"*.ru"}));  // bare suffix
  EXPECT_FALSE(chaos::HostMatchesAny("mailxru", {"*.ru"}));
  EXPECT_TRUE(chaos::HostMatchesAny("exact.host", {"exact.host"}));
  EXPECT_FALSE(chaos::HostMatchesAny("other.host", {"exact.host"}));
}

TEST(ChaosInjector, ExtremeProbabilitiesAreCertain) {
  chaos::FaultProfile always;
  always.name = "always";
  always.dns_failure_p = 1.0;
  always.latency_spike_p = 1.0;
  always.latency_spike = util::Duration::Millis(777);
  chaos::Injector on(1, always);
  EXPECT_TRUE(on.DnsFault("a.example"));
  EXPECT_EQ(on.LatencySpike("1.2.3.4").millis, 777);

  chaos::FaultProfile never;
  never.name = "never";
  never.dead_hosts = {"dead.example"};  // enabled, but p = 0 everywhere
  chaos::Injector off(1, never);
  EXPECT_FALSE(off.DnsFault("alive.example"));
  EXPECT_FALSE(off.TlsDrop("alive.example"));
  EXPECT_FALSE(off.ServerError("alive.example"));
  EXPECT_EQ(off.LatencySpike("1.2.3.4").millis, 0);
}

TEST(ChaosInjector, DeadHostsAlwaysFailAndAreRecorded) {
  chaos::FaultProfile profile;
  profile.name = "dead";
  profile.dead_hosts = {"*.dead.example"};
  chaos::Injector injector(42, profile);
  EXPECT_TRUE(injector.DnsFault("a.dead.example"));
  EXPECT_TRUE(injector.DnsFault("b.dead.example"));
  EXPECT_FALSE(injector.DnsFault("alive.example"));
  EXPECT_EQ(injector.CountFor(chaos::FaultKind::kDnsDeadHost), 2u);
  ASSERT_EQ(injector.events().size(), 2u);
  EXPECT_EQ(injector.events()[0].kind, chaos::FaultKind::kDnsDeadHost);
  EXPECT_EQ(injector.events()[0].host, "a.dead.example");
}

// The core determinism property: decisions depend on (seed, profile,
// kind, host, per-slot draw index) — never on the interleaving of
// draws for *other* hosts.
TEST(ChaosInjector, DrawsArePerHostAndInterleavingIndependent) {
  auto profile = *chaos::FaultProfile::Named("flaky");
  chaos::Injector a(20231024, profile);
  chaos::Injector b(20231024, profile);

  // a: alpha ×3, then beta ×3. b: interleaved.
  std::vector<bool> a_alpha, a_beta, b_alpha, b_beta;
  for (int i = 0; i < 3; ++i) a_alpha.push_back(a.ServerError("alpha.gr"));
  for (int i = 0; i < 3; ++i) a_beta.push_back(a.ServerError("beta.gr"));
  for (int i = 0; i < 3; ++i) {
    b_beta.push_back(b.ServerError("beta.gr"));
    b_alpha.push_back(b.ServerError("alpha.gr"));
  }
  EXPECT_EQ(a_alpha, b_alpha);
  EXPECT_EQ(a_beta, b_beta);
}

TEST(ChaosInjector, SeedAndProfileBothChangeTheTimeline) {
  auto profile = *chaos::FaultProfile::Named("flaky");
  auto storm = *chaos::FaultProfile::Named("dns-storm");
  auto draw_pattern = [](chaos::Injector& injector) {
    std::string out;
    for (int i = 0; i < 200; ++i) {
      out += injector.DnsFault("host" + std::to_string(i % 7) + ".gr") ? '1'
                                                                       : '0';
    }
    return out;
  };
  chaos::Injector a(1, profile), b(1, profile), c(2, profile), d(1, storm);
  EXPECT_EQ(draw_pattern(a), draw_pattern(b));      // replayable
  EXPECT_NE(draw_pattern(a), draw_pattern(c));      // seed matters
  EXPECT_NE(draw_pattern(a), draw_pattern(d));      // profile matters
}

TEST(ChaosSeed, AttemptZeroMatchesLegacyDerivation) {
  using core::CampaignKind;
  EXPECT_EQ(core::DeriveJobSeed(20231024, "Yandex", CampaignKind::kCrawl, 0),
            core::DeriveJobSeed(20231024, "Yandex", CampaignKind::kCrawl, 0,
                                /*attempt=*/0));
  // Retry attempts decorrelate.
  std::set<uint64_t> seeds;
  for (int attempt = 0; attempt < 4; ++attempt) {
    seeds.insert(core::DeriveJobSeed(20231024, "Yandex",
                                     CampaignKind::kCrawl, 0, attempt));
  }
  EXPECT_EQ(seeds.size(), 4u);
}

core::FleetOptions ChaosFleet(int jobs, const char* profile,
                              int max_retries) {
  core::FleetOptions options;
  options.jobs = jobs;
  options.framework.catalog.popular_count = 3;
  options.framework.catalog.sensitive_count = 1;
  options.framework.chaos = *chaos::FaultProfile::Named(profile);
  options.max_job_retries = max_retries;
  return options;
}

std::vector<browser::BrowserSpec> Browsers(
    std::initializer_list<std::string_view> names) {
  std::vector<browser::BrowserSpec> specs;
  for (auto name : names) specs.push_back(*browser::FindSpec(name));
  return specs;
}

// Acceptance criterion: identical (base_seed, profile, shards) with
// jobs ∈ {1, 8} produce byte-identical reports AND manifests.
TEST(ChaosFleetDeterminism, ReportAndManifestIdenticalAcrossWorkerCounts) {
  core::CrawlOptions crawl;
  crawl.retry.max_retries = 2;
  auto jobs = core::FleetExecutor::PlanCampaign(
      Browsers({"Yandex", "DuckDuckGo"}),
      {core::CampaignKind::kCrawl, core::CampaignKind::kIncognitoCrawl}, 2,
      crawl);

  std::string reference_report, reference_manifest;
  for (int workers : {1, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    core::FleetExecutor executor(ChaosFleet(workers, "flaky", 1));
    auto results = executor.Run(jobs);
    std::string manifest =
        core::BuildRunManifest(executor.options(), results).ToJson();
    std::string report = analysis::FleetReportJson(
        core::FleetExecutor::MergeShards(std::move(results)));
    if (reference_report.empty()) {
      reference_report = std::move(report);
      reference_manifest = std::move(manifest);
    } else {
      EXPECT_EQ(report, reference_report);
      EXPECT_EQ(manifest, reference_manifest);
    }
  }
}

// No fabricated findings: chaos-synthesized responses are tagged and
// excluded, so every flow that *did* reach a findings store is
// genuine.
TEST(ChaosFindings, InjectedFaultsNeverEnterTheStores) {
  core::FrameworkOptions options;
  options.catalog.popular_count = 4;
  options.catalog.sensitive_count = 0;
  options.chaos = *chaos::FaultProfile::Named("vendor-5xx");
  core::Framework framework(options);
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);

  auto result = core::RunCrawl(framework, *browser::FindSpec("Yandex"), sites);
  // The profile injected at least one 5xx episode on this seed...
  ASSERT_TRUE(framework.chaos() != nullptr);
  EXPECT_GT(framework.chaos()->CountFor(chaos::FaultKind::kServerError), 0u);
  EXPECT_GT(result.fault_injected_flows, 0u);
  // ...but no synthesized flow reached either store.
  for (const auto* store :
       {result.engine_flows.get(), result.native_flows.get()}) {
    for (const auto& flow : store->flows()) {
      EXPECT_FALSE(flow.fault_injected) << flow.url.Serialize();
    }
  }
}

// Bounded self-healing: a fully-dead world quarantines every crawl job
// in exactly max_job_retries + 1 attempts; quarantined jobs appear in
// the manifest and never in the merged findings.
TEST(ChaosQuarantine, BlackoutQuarantinesInBoundedAttempts) {
  core::FleetOptions options = ChaosFleet(2, "blackout", /*max_retries=*/1);
  auto jobs = core::FleetExecutor::PlanCampaign(
      Browsers({"Yandex"}), {core::CampaignKind::kCrawl}, 2);

  core::FleetExecutor executor(options);
  auto results = executor.Run(jobs);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.quarantined);
    EXPECT_EQ(result.attempts, options.max_job_retries + 1);
    // Nothing was captured from a dead world.
    EXPECT_EQ(result.crawl->engine_flows->size(), 0u);
    EXPECT_EQ(result.crawl->native_flows->size(), 0u);
  }

  core::RunManifest manifest = core::BuildRunManifest(options, results);
  EXPECT_EQ(manifest.quarantined_jobs, 2u);
  EXPECT_TRUE(manifest.Degraded());
  EXPECT_EQ(manifest.jobs.size(), 2u);
  for (const auto& job : manifest.jobs) {
    EXPECT_TRUE(job.quarantined);
    EXPECT_GT(job.faults_injected, 0u);  // the dead-host events
  }

  // Salvage: the merged findings contain no quarantined shard.
  auto merged = core::FleetExecutor::MergeShards(std::move(results));
  EXPECT_TRUE(merged.empty());
}

// Retries never double-count: a visit that keeps failing is retried
// (bounded) and its partial traffic is rolled back, so arming retries
// must not increase any flow count.
TEST(ChaosRetry, FailedAttemptsAreRolledBack) {
  auto run = [](int max_retries) {
    core::FrameworkOptions options;
    options.catalog.popular_count = 4;
    options.catalog.sensitive_count = 0;
    core::Framework framework(options);
    std::vector<const web::Site*> sites;
    for (const auto& site : framework.catalog().sites()) {
      sites.push_back(&site);
    }
    // One permanently-broken site (stub DNS outage, not chaos).
    framework.network().zone().SetFailing(sites[1]->hostname, true);
    core::CrawlOptions crawl;
    crawl.retry.max_retries = max_retries;
    return core::RunCrawl(framework, *browser::FindSpec("Yandex"), sites,
                          crawl);
  };

  auto single = run(0);
  auto retried = run(2);

  // Bounded: 1 + max_retries attempts, then the visit is given up.
  ASSERT_EQ(retried.visits.size(), 4u);
  EXPECT_FALSE(retried.visits[1].ok);
  EXPECT_EQ(retried.visits[1].attempts, 3);
  EXPECT_EQ(retried.visits[1].fault_cause, "page-load-failed");
  EXPECT_GT(retried.visits[1].backoff_millis, 0);
  EXPECT_EQ(retried.visits[0].attempts, 1);

  // Tripling the attempts must not add flows anywhere: the retry run
  // may only have *fewer* flows (the failed visit's partial traffic is
  // rolled back, which the legacy single-attempt path keeps).
  EXPECT_LE(retried.engine_flows->size(), single.engine_flows->size());
  EXPECT_LE(retried.native_flows->size(), single.native_flows->size());
  // Healthy visits are unaffected by the policy.
  EXPECT_EQ(retried.visits[0].engine_requests,
            single.visits[0].engine_requests);
  EXPECT_EQ(retried.visits[2].engine_requests,
            single.visits[2].engine_requests);
}

// The stores drop writes (and count them) when the profile says so.
TEST(ChaosFlowStore, WriteDropsAreCountedNotStored) {
  chaos::FaultProfile profile;
  profile.name = "droppy";
  profile.flow_write_drop_p = 1.0;
  chaos::Injector injector(7, profile);
  proxy::FlowStore store;
  store.SetChaos(&injector);
  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://x.example/a");
  store.Add(flow);
  store.Add(flow);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.dropped_writes(), 2u);
  store.SetChaos(nullptr);
  store.Add(flow);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ChaosFlowStore, TruncateToDiscardsTail) {
  proxy::FlowStore store;
  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://x.example/a");
  for (int i = 0; i < 5; ++i) store.Add(flow);
  store.TruncateTo(2);
  EXPECT_EQ(store.size(), 2u);
  store.TruncateTo(4);  // growing is a no-op
  EXPECT_EQ(store.size(), 2u);
}

// Metric reconciliation: rollbacks are counted on their own, so the
// stored-flows total keeps adding up — stored − rolled_back must equal
// the number of flows actually sitting in the stores at the end. Read
// from the job's own telemetry scope.
TEST(ChaosMetrics, StoredMinusRolledBackReconcilesWithFinalStores) {
  core::FrameworkOptions options;
  options.catalog.popular_count = 4;
  options.catalog.sensitive_count = 0;
  core::Framework framework(options);
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);
  framework.network().zone().SetFailing(sites[1]->hostname, true);
  core::CrawlOptions crawl;
  crawl.retry.max_retries = 2;
  auto result =
      core::RunCrawl(framework, *browser::FindSpec("Yandex"), sites, crawl);

  const obs::JobTelemetry telemetry = framework.Accounting();
  // The broken site's failed attempts left partial traffic behind and
  // the retry loop rolled it back.
  EXPECT_GT(telemetry.flows_rolled_back, 0u);
  EXPECT_EQ(telemetry.flows_stored - telemetry.flows_rolled_back,
            result.engine_flows->size() + result.native_flows->size());
  // Both retries of the broken site were counted, and the DNS failures
  // behind them.
  EXPECT_EQ(telemetry.visit_retries, 2u);
  EXPECT_GT(telemetry.dns_failures, 0u);
}

// Disabled chaos is bit-identical to the pre-chaos build: the golden
// counts from the determinism suite still hold with a "none" profile
// explicitly set.
TEST(ChaosOff, NoneProfileLeavesTheCrawlUntouched) {
  core::FrameworkOptions options;
  options.catalog.popular_count = 4;
  options.catalog.sensitive_count = 0;
  auto crawl_with = [&](const chaos::FaultProfile& profile) {
    core::FrameworkOptions opts = options;
    opts.chaos = profile;
    core::Framework framework(opts);
    std::vector<const web::Site*> sites;
    for (const auto& site : framework.catalog().sites()) {
      sites.push_back(&site);
    }
    auto result =
        core::RunCrawl(framework, *browser::FindSpec("Yandex"), sites);
    return std::make_pair(result.engine_flows->size(),
                          result.native_flows->size());
  };
  EXPECT_EQ(crawl_with(chaos::FaultProfile{}),
            crawl_with(*chaos::FaultProfile::Named("none")));
}

}  // namespace
}  // namespace panoptes
