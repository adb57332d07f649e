// Golden-value regression tests at the paper seed (20231024).
//
// The reproduction's figures are only as trustworthy as the calibrated
// browser profiles behind them; a silent drift in the request plans,
// the site generator or the RNG stream shifts every ratio in Fig 2.
// These tests pin exact request counts and native ratios for three
// representative profiles (Yandex: dataset maximum, Samsung: low,
// DuckDuckGo: minimum) on a fixed 40-site catalog, so drift fails CI
// instead of having to be eyeballed against the paper.
//
// If a deliberate calibration change lands, re-derive the constants by
// running this test and copying the reported actual values — and
// re-check EXPERIMENTS.md's tables still hold.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/audit.h"
#include "analysis/export.h"
#include "analysis/flow_index.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/fleet.h"
#include "core/framework.h"
#include "oracle/serial_fleet.h"
#include "util/binio.h"

namespace panoptes::core {
namespace {

constexpr uint64_t kPaperSeed = 20231024;  // IMC'23 first day

CrawlResult GoldenCrawl(std::string_view browser) {
  FrameworkOptions options;
  options.seed = kPaperSeed;
  options.catalog.popular_count = 20;
  options.catalog.sensitive_count = 20;
  Framework framework(options);
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);
  return RunCrawl(framework, *browser::FindSpec(browser), sites);
}

struct Golden {
  const char* browser;
  uint64_t engine_requests;
  uint64_t native_requests;
};

// Exact counts for a fresh framework at the paper seed, 20+20 sites.
// The engine side is browser-independent (same web, same engine) for
// non-adblocking browsers; the native side is the calibrated profile.
// Ratios track Fig 2's ordering: Yandex max, Samsung low, DDG minimum.
constexpr Golden kGolden[] = {
    {"Yandex", 1017, 566},
    {"Samsung", 1017, 104},
    {"DuckDuckGo", 1017, 27},
};

TEST(Determinism, GoldenRequestCountsAtPaperSeed) {
  for (const auto& golden : kGolden) {
    SCOPED_TRACE(golden.browser);
    auto result = GoldenCrawl(golden.browser);
    EXPECT_EQ(result.EngineRequestCount(), golden.engine_requests);
    EXPECT_EQ(result.NativeRequestCount(), golden.native_requests);
    double expected_ratio =
        static_cast<double>(golden.native_requests) /
        static_cast<double>(golden.native_requests + golden.engine_requests);
    EXPECT_DOUBLE_EQ(result.NativeRatio(), expected_ratio);
  }
}

TEST(Determinism, RepeatedCrawlsAreBitIdentical) {
  auto first = GoldenCrawl("Yandex");
  auto second = GoldenCrawl("Yandex");
  ASSERT_EQ(first.native_flows->size(), second.native_flows->size());
  for (size_t i = 0; i < first.native_flows->size(); ++i) {
    const auto& a = first.native_flows->flows()[i];
    const auto& b = second.native_flows->flows()[i];
    EXPECT_EQ(a.url.Serialize(), b.url.Serialize());
    EXPECT_EQ(a.time.millis, b.time.millis);
    EXPECT_EQ(a.request_bytes, b.request_bytes);
  }
}

// The fleet's seed derivation is part of the determinism contract: a
// change here re-seeds every sharded campaign, so it must be explicit.
TEST(Determinism, JobSeedDerivationIsPinned) {
  EXPECT_EQ(DeriveJobSeed(kPaperSeed, "Yandex", CampaignKind::kCrawl, 0),
            8379929806318620680ull);
  EXPECT_EQ(DeriveJobSeed(kPaperSeed, "Opera", CampaignKind::kIdle, 2),
            15057783577856798029ull);
}

// ---------------------------------------------------------------------------
// FlowIndex shard-merge determinism: the merged analysis indexes — not
// just the exported reports — must be independent of worker count and
// of whether a result executed fresh or replayed from a cache snapshot.
// ---------------------------------------------------------------------------

FleetOptions IndexFleet(int jobs, std::string cache_dir = {}) {
  FleetOptions options;
  options.jobs = jobs;
  options.base_seed = kPaperSeed;
  options.framework.catalog.popular_count = 3;
  options.framework.catalog.sensitive_count = 1;
  options.cache_dir = std::move(cache_dir);
  return options;
}

std::vector<FleetJob> IndexPlan() {
  std::vector<browser::BrowserSpec> specs = {*browser::FindSpec("Yandex"),
                                             *browser::FindSpec("DuckDuckGo")};
  return FleetExecutor::PlanCampaign(
      specs, {CampaignKind::kCrawl, CampaignKind::kIdle}, 2);
}

// Serialized bytes of every index a merged result set carries, in
// result order — the strictest equality the indexes can satisfy.
std::vector<std::string> IndexBytes(
    const std::vector<FleetJobResult>& results) {
  std::vector<std::string> bytes;
  for (const auto& result : results) {
    std::vector<const analysis::FlowIndex*> indexes;
    if (result.crawl) {
      indexes.push_back(result.crawl->engine_index.get());
      indexes.push_back(result.crawl->native_index.get());
    }
    if (result.idle) indexes.push_back(result.idle->native_index.get());
    for (const analysis::FlowIndex* index : indexes) {
      if (index == nullptr) continue;
      util::BinWriter out;
      index->SerializeTo(out);
      bytes.push_back(out.Take());
    }
  }
  return bytes;
}

TEST(Determinism, MergedReportsAndIndexesInvariantUnderJobCount) {
  auto jobs = IndexPlan();
  auto one = FleetExecutor(IndexFleet(1)).Run(jobs);
  auto eight = FleetExecutor(IndexFleet(8)).Run(jobs);

  auto merged_one = FleetExecutor::MergeShards(std::move(one));
  auto merged_eight = FleetExecutor::MergeShards(std::move(eight));

  // Every merged index is byte-identical: 8 workers merge per-shard
  // indexes in exactly the order one worker does.
  EXPECT_EQ(IndexBytes(merged_one), IndexBytes(merged_eight));
  EXPECT_EQ(analysis::FleetReportJson(merged_one),
            analysis::FleetReportJson(merged_eight));
  EXPECT_EQ(analysis::FleetSummaryCsv(merged_one),
            analysis::FleetSummaryCsv(merged_eight));
}

TEST(Determinism, WarmCacheRunMatchesColdByteForByte) {
  namespace fs = std::filesystem;
  fs::path dir =
      fs::temp_directory_path() / "panoptes_determinism_test" / "warm_index";
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto jobs = IndexPlan();
  FleetExecutor cold(IndexFleet(8, dir.string()));
  auto cold_results = cold.Run(jobs);
  for (const auto& result : cold_results) EXPECT_FALSE(result.cache_hit);

  FleetExecutor warm(IndexFleet(8, dir.string()));
  auto warm_results = warm.Run(jobs);
  for (const auto& result : warm_results) EXPECT_TRUE(result.cache_hit);

  // Snapshot-restored indexes serialize byte-identically to the ones
  // built at capture time — rebuilt or deserialized, same bytes.
  EXPECT_EQ(IndexBytes(cold_results), IndexBytes(warm_results));

  auto merged_cold = FleetExecutor::MergeShards(std::move(cold_results));
  auto merged_warm = FleetExecutor::MergeShards(std::move(warm_results));
  EXPECT_EQ(IndexBytes(merged_cold), IndexBytes(merged_warm));
  EXPECT_EQ(analysis::FleetReportJson(merged_cold),
            analysis::FleetReportJson(merged_warm));
  EXPECT_EQ(analysis::FleetSummaryCsv(merged_cold),
            analysis::FleetSummaryCsv(merged_warm));

  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Parallel analyzer battery determinism: AuditBrowser schedules its
// analyzers through analysis::AnalysisBattery, and the battery's
// contract is that the worker count is a pure wall-clock knob. Pin it
// on every artifact shape a battery result reaches — the Markdown
// report, the CSV exports, and a canonical JSON rendering — at jobs 1
// (the serial reference schedule) vs 8.
// ---------------------------------------------------------------------------

analysis::BrowserAuditReport AuditAtJobs(int analysis_jobs) {
  FrameworkOptions options;
  options.seed = kPaperSeed;
  options.catalog.popular_count = 5;
  options.catalog.sensitive_count = 3;
  Framework framework(options);
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);
  auto hosts_list = analysis::HostsList::Default();
  analysis::GeoIpDb geo(framework.geo_plan().ranges());
  return analysis::AuditBrowser(framework, *browser::FindSpec("Yandex"),
                                sites, hosts_list, geo, analysis_jobs);
}

// Canonical JSON over every report field the battery tasks write, so a
// scheduling bug in ANY task breaks byte equality, not just the fields
// the Markdown renderer happens to print.
std::string AuditJson(const analysis::BrowserAuditReport& report) {
  util::JsonObject object;
  object["browser"] = report.browser;
  object["native_requests"] = report.requests.native_requests;
  object["engine_requests"] = report.requests.engine_requests;
  object["native_ratio"] = report.requests.native_ratio;
  object["native_extra_fraction"] = report.volume.native_extra_fraction;
  object["distinct_hosts"] = report.domains.distinct_hosts;
  object["ad_related_hosts"] = report.domains.ad_related_hosts;
  object["pii_leaks"] = report.pii.LeakCount();
  object["referer_leaking_requests"] = report.referer.leaking_requests;
  util::JsonArray leaks;
  for (const auto* findings : {&report.native_leaks, &report.engine_leaks}) {
    for (const auto& leak : *findings) {
      util::JsonObject entry;
      entry["host"] = leak.destination_host;
      entry["encoding"] = leak.encoding;
      entry["reports"] = static_cast<uint64_t>(leak.report_count);
      leaks.push_back(std::move(entry));
    }
  }
  object["history_leaks"] = std::move(leaks);
  util::JsonArray countries;
  for (const auto& share : report.countries) {
    util::JsonObject entry;
    entry["code"] = share.country_code;
    entry["flows"] = static_cast<uint64_t>(share.flows);
    countries.push_back(std::move(entry));
  }
  object["countries"] = std::move(countries);
  return util::Json(std::move(object)).Dump();
}

TEST(Determinism, AuditBatteryInvariantUnderAnalysisJobs) {
  auto serial = AuditAtJobs(1);
  auto parallel = AuditAtJobs(8);

  // Report, CSV and JSON artifacts, all byte-identical.
  EXPECT_EQ(analysis::RenderAuditMarkdown({serial}),
            analysis::RenderAuditMarkdown({parallel}));
  EXPECT_EQ(analysis::RequestStatsCsv({serial.requests}),
            analysis::RequestStatsCsv({parallel.requests}));
  EXPECT_EQ(analysis::VolumeStatsCsv({serial.volume}),
            analysis::VolumeStatsCsv({parallel.volume}));
  EXPECT_EQ(analysis::DomainStatsCsv({serial.domains}),
            analysis::DomainStatsCsv({parallel.domains}));
  EXPECT_EQ(AuditJson(serial), AuditJson(parallel));
}

// ---------------------------------------------------------------------------
// Device-population fleet determinism: the cohort dimension must obey
// the same contracts as browser×kind×shard — worker count is a pure
// wall-clock knob, shard merge matches the serial oracle, and the
// population seed is part of the report's identity.
// ---------------------------------------------------------------------------

std::vector<FleetJob> PopulationPlan(uint64_t population_seed,
                                     int shards = 1) {
  std::vector<browser::BrowserSpec> specs = {*browser::FindSpec("Yandex"),
                                             *browser::FindSpec("Opera")};
  auto cohorts = device::PopulationGenerator::Generate(3, population_seed);
  return FleetExecutor::PlanCampaign(
      specs, cohorts, {CampaignKind::kCrawl, CampaignKind::kIdle}, shards);
}

TEST(Determinism, PopulationReportsInvariantUnderJobCount) {
  auto jobs = PopulationPlan(kPaperSeed);
  auto one = FleetExecutor(IndexFleet(1)).Run(jobs);
  auto eight = FleetExecutor(IndexFleet(8)).Run(jobs);

  auto merged_one = FleetExecutor::MergeShards(std::move(one));
  auto merged_eight = FleetExecutor::MergeShards(std::move(eight));

  EXPECT_EQ(IndexBytes(merged_one), IndexBytes(merged_eight));
  auto json = analysis::FleetReportJson(merged_one);
  EXPECT_EQ(json, analysis::FleetReportJson(merged_eight));
  EXPECT_EQ(analysis::FleetSummaryCsv(merged_one),
            analysis::FleetSummaryCsv(merged_eight));

  // The population actually shows in the artifacts: per-entry cohort
  // objects plus the weighted per-browser aggregate block.
  EXPECT_NE(json.find("\"cohort\""), std::string::npos);
  EXPECT_NE(json.find("\"population\""), std::string::npos);
  EXPECT_NE(analysis::FleetSummaryCsv(merged_eight).find("c0002"),
            std::string::npos);
}

// A sharded cohort plan executed on the thread pool merges to exactly
// what the one-job-at-a-time oracle produces — cohort by cohort, byte
// for byte.
TEST(Determinism, PopulationShardMergeMatchesSerialOracle) {
  auto jobs = PopulationPlan(kPaperSeed, 2);
  auto serial = oracle::RunSerial(FleetExecutor(IndexFleet(1)), jobs);
  auto sharded = FleetExecutor(IndexFleet(4)).Run(jobs);

  auto merged_serial = FleetExecutor::MergeShards(std::move(serial));
  auto merged_sharded = FleetExecutor::MergeShards(std::move(sharded));

  ASSERT_EQ(merged_serial.size(), merged_sharded.size());
  for (size_t i = 0; i < merged_serial.size(); ++i) {
    EXPECT_EQ(merged_serial[i].job.cohort.id,
              merged_sharded[i].job.cohort.id);
  }
  EXPECT_EQ(analysis::FleetReportJson(merged_serial),
            analysis::FleetReportJson(merged_sharded));
  EXPECT_EQ(analysis::FleetSummaryCsv(merged_serial),
            analysis::FleetSummaryCsv(merged_sharded));
}

TEST(Determinism, PopulationSeedChangesTheCampaign) {
  auto a = FleetExecutor::MergeShards(
      FleetExecutor(IndexFleet(1)).Run(PopulationPlan(kPaperSeed)));
  auto b = FleetExecutor::MergeShards(
      FleetExecutor(IndexFleet(1)).Run(PopulationPlan(kPaperSeed + 7)));
  EXPECT_NE(analysis::FleetReportJson(a), analysis::FleetReportJson(b));
}

}  // namespace
}  // namespace panoptes::core
