// Fleet report byte oracle and finding provenance.
//
// The five fleet artifacts (FleetReportJson, FleetSummaryCsv,
// UidSmugglingReportJson, UidSmugglingCsv, FleetSummaryTable) are where
// the paper's figures are read off, so a refactor of how they are
// computed must leave every byte alone. The golden test renders all five
// over one small plan that reaches every section they have: device
// cohorts (the population columns and "population" sections), an idle
// kind, the UID-smuggling scenario, a quarantined shard (salvage and the
// degraded footer) and a result that never captured anything.
//
// If a deliberate report-format change lands, re-derive the hashes by
// running this test and copying the reported actual values.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/export.h"
#include "analysis/flow_index.h"
#include "analysis/report.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "core/run_manifest.h"
#include "device/population.h"
#include "util/hex.h"
#include "util/json.h"
#include "util/rng.h"

namespace panoptes::analysis {
namespace {

struct GoldenRun {
  std::vector<core::FleetJobResult> merged;
  core::RunManifest manifest;
};

// 2 browsers x 2 cohorts x (crawl, idle) x 2 shards over a 4-site web
// where half the sites bounce and decorate links.
GoldenRun RunGoldenFleet() {
  core::FleetOptions options;
  options.jobs = 2;
  options.base_seed = 20231024;
  options.framework.catalog.popular_count = 3;
  options.framework.catalog.sensitive_count = 1;
  options.framework.catalog.sitegen.bounce_fraction = 0.5;
  options.framework.catalog.sitegen.decoration_fraction = 0.5;
  core::IdleOptions idle;
  idle.duration = util::Duration::Minutes(1);
  auto jobs = core::FleetExecutor::PlanCampaign(
      {*browser::FindSpec("Yandex"), *browser::FindSpec("Opera")},
      device::PopulationGenerator::Generate(2, 20231024),
      {core::CampaignKind::kCrawl, core::CampaignKind::kIdle}, 2,
      core::CrawlOptions{}, idle);
  auto results = core::FleetExecutor(options).Run(jobs);

  // Quarantine the second shard of the first crawl group: the merge
  // salvages around it and the summary table grows a degraded footer.
  for (auto& result : results) {
    if (result.crawl.has_value() && result.job.shard == 1) {
      result.quarantined = true;
      break;
    }
  }
  GoldenRun run;
  run.manifest = core::BuildRunManifest(options, results);
  run.merged = core::FleetExecutor::MergeShards(std::move(results));
  // A job that never captured anything renders as a zero row, an entry
  // without figures, and no smuggling entry.
  core::FleetJobResult never_ran;
  never_ran.job = jobs.front();
  run.merged.push_back(std::move(never_ran));
  return run;
}

TEST(FleetReportGolden, FiveArtifactsArePinned) {
  GoldenRun run = RunGoldenFleet();
  const std::string report = FleetReportJson(run.merged);
  const std::string summary = FleetSummaryCsv(run.merged);
  const std::string smuggling = UidSmugglingReportJson(run.merged);
  const std::string smuggling_csv = UidSmugglingCsv(run.merged);
  const std::string table =
      FleetSummaryTable(run.merged, nullptr, &run.manifest);

  // The plan reaches the sections the pins are meant to cover.
  EXPECT_NE(report.find("\"population\""), std::string::npos);
  EXPECT_NE(report.find("\"cumulative_by_bucket\""), std::string::npos);
  EXPECT_NE(smuggling.find("\"population\""), std::string::npos);
  EXPECT_NE(smuggling.find("\"value_union\""), std::string::npos);
  EXPECT_NE(summary.find("cohort_weight"), std::string::npos);
  EXPECT_GT(std::count(smuggling_csv.begin(), smuggling_csv.end(), '\n'), 1);
  EXPECT_NE(table.find("1 quarantined jobs"), std::string::npos);

  EXPECT_EQ(util::Hex64(util::HashBytes64(report)), "0x40dc3e84a3d58322");
  EXPECT_EQ(util::Hex64(util::HashBytes64(summary)), "0x329fe3424f904839");
  EXPECT_EQ(util::Hex64(util::HashBytes64(smuggling)), "0x171f68f3974f7ed2");
  EXPECT_EQ(util::Hex64(util::HashBytes64(smuggling_csv)),
            "0x5d2ee5ce24c2858a");
  EXPECT_EQ(util::Hex64(util::HashBytes64(table)), "0x241c9b9972519d6a");
}

// ---------------------------------------------------------------------------
// Finding provenance on a hand-built crawl: the exact flow a finding
// cites, the visit it resolves to and whether that flow was
// fault-injected.

constexpr uint32_t kEngineTag = 0xE1;
constexpr uint32_t kNativeTag = 0xA7;

proxy::Flow NativeFlow(const char* url, bool fault_injected) {
  proxy::Flow flow;
  flow.browser = "Yandex";
  flow.origin = proxy::TrafficOrigin::kNative;
  flow.url = *net::Url::Parse(url);
  flow.response_status = 200;
  flow.fault_injected = fault_injected;
  return flow;
}

// Two visits. Visit 0 captured one clean native flow; visit 1 captured
// a fault-injected flow that leaks the manufacturer and a token to
// a.example, and the same token to b.example.
core::FleetJobResult HandBuiltCrawl() {
  core::CrawlResult crawl;
  crawl.browser = "Yandex";
  crawl.engine_flows = std::make_unique<proxy::FlowStore>();
  crawl.engine_flows->SetProvenance(kEngineTag);
  crawl.native_flows = std::make_unique<proxy::FlowStore>();
  crawl.native_flows->SetProvenance(kNativeTag);
  crawl.native_flows->Add(NativeFlow("https://c.example/ping?x=1", false));
  crawl.native_flows->Add(NativeFlow(
      "https://a.example/t?manufacturer=Samsung&uid=tok12345abc", true));
  crawl.native_flows->Add(
      NativeFlow("https://b.example/t?uid=tok12345abc", false));
  crawl.engine_index = std::make_unique<FlowIndex>(
      FlowIndex::Build(*crawl.engine_flows));
  crawl.native_index = std::make_unique<FlowIndex>(
      FlowIndex::Build(*crawl.native_flows));

  core::VisitRecord first;
  first.hostname = "one.example";
  first.engine_tag = kEngineTag;
  first.native_tag = kNativeTag;
  first.native_flow_begin = 0;
  first.native_flow_end = 1;
  core::VisitRecord second = first;
  second.hostname = "two.example";
  second.native_flow_begin = 1;
  second.native_flow_end = 3;
  crawl.visits = {first, second};

  core::FleetJobResult result;
  result.job.spec = *browser::FindSpec("Yandex");
  result.job.kind = core::CampaignKind::kCrawl;
  result.crawl = std::move(crawl);
  return result;
}

TEST(FleetReportProvenance, FindingCarriesItsFlowsFaultFlagAndVisit) {
  std::vector<core::FleetJobResult> results;
  results.push_back(HandBuiltCrawl());
  const uint64_t leaking_uid = results[0].crawl->native_flows->flow(1).uid;

  auto report = util::Json::Parse(FleetReportJson(results));
  ASSERT_TRUE(report.has_value());
  const util::Json& entry = report->Find("results")->as_array().at(0);
  const util::JsonArray& findings = entry.Find("findings")->as_array();
  ASSERT_EQ(findings.size(), 1u);
  const util::Json& finding = findings[0];
  EXPECT_EQ(finding.Find("field")->as_string(), "Device Manuf.");
  EXPECT_EQ(finding.Find("flow_id")->as_string(), util::Hex64(leaking_uid));
  EXPECT_TRUE(finding.Find("fault_injected")->as_bool());
  EXPECT_EQ(finding.Find("visit")->as_number(), 1.0);
}

TEST(FleetReportProvenance, SightingResolvesToTheSameVisit) {
  std::vector<core::FleetJobResult> results;
  results.push_back(HandBuiltCrawl());
  const uint64_t leaking_uid = results[0].crawl->native_flows->flow(1).uid;

  auto report = util::Json::Parse(UidSmugglingReportJson(results));
  ASSERT_TRUE(report.has_value());
  const util::Json& entry = report->Find("results")->as_array().at(0);
  const util::JsonArray& findings = entry.Find("findings")->as_array();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].Find("value")->as_string(), "tok12345abc");
  bool saw_leaking_flow = false;
  for (const util::Json& sighting :
       findings[0].Find("sightings")->as_array()) {
    EXPECT_EQ(sighting.Find("visit")->as_number(), 1.0);
    if (sighting.Find("flow_id")->as_string() == util::Hex64(leaking_uid)) {
      saw_leaking_flow = true;
    }
  }
  EXPECT_TRUE(saw_leaking_flow);
}

}  // namespace
}  // namespace panoptes::analysis
