// Integration tests: full crawls through device → proxy → fabric →
// vendors, parameterized over all 15 browsers, checking the system
// invariants the paper's methodology depends on.
#include <gtest/gtest.h>

#include "analysis/historyleak.h"
#include "analysis/naive_split.h"
#include "analysis/pii.h"
#include "analysis/stats.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"

namespace panoptes {
namespace {

core::FrameworkOptions SmallOptions() {
  core::FrameworkOptions options;
  options.catalog.popular_count = 8;
  options.catalog.sensitive_count = 4;
  return options;
}

std::vector<const web::Site*> Sites(core::Framework& framework, size_t n) {
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) {
    sites.push_back(&site);
    if (sites.size() == n) break;
  }
  return sites;
}

// One shared framework for the per-browser sweep (construction is the
// expensive part).
class BrowserSweep : public ::testing::TestWithParam<std::string> {
 protected:
  static core::Framework& SharedFramework() {
    static core::Framework* framework =
        new core::Framework(SmallOptions());
    return *framework;
  }

  const browser::BrowserSpec& Spec() {
    return *browser::FindSpec(GetParam());
  }
};

TEST_P(BrowserSweep, CrawlSplitsTrafficAndLeaksNoTaint) {
  auto& framework = SharedFramework();
  auto sites = Sites(framework, 6);
  uint64_t taint_leaks_before = framework.network().taint_leaks();

  auto result = core::RunCrawl(framework, Spec(), sites);

  // Every visit loaded.
  ASSERT_EQ(result.visits.size(), sites.size());
  for (const auto& visit : result.visits) {
    EXPECT_TRUE(visit.ok) << visit.hostname;
    EXPECT_TRUE(visit.dom_content_loaded) << visit.hostname;
  }

  // Engine traffic exists and is tainted; native store holds only
  // untainted flows.
  EXPECT_GT(result.engine_flows->size(), 0u);
  for (const auto& flow : result.native_flows->flows()) {
    EXPECT_EQ(flow.origin, proxy::TrafficOrigin::kNative);
    EXPECT_TRUE(flow.taint.empty());
    EXPECT_FALSE(flow.request_headers.Has("x-panoptes-taint"));
  }
  for (const auto& flow : result.engine_flows->flows()) {
    EXPECT_EQ(flow.origin, proxy::TrafficOrigin::kEngine);
  }

  // Invariant: the taint header never reached any server.
  EXPECT_EQ(framework.network().taint_leaks(), taint_leaks_before);

  // Flows are labelled with this browser.
  if (!result.native_flows->empty()) {
    EXPECT_EQ(result.native_flows->flows().front().browser, Spec().name);
  }
}

TEST_P(BrowserSweep, PiiLeaksMatchSpecProfile) {
  auto& framework = SharedFramework();
  auto sites = Sites(framework, 6);
  auto result = core::RunCrawl(framework, Spec(), sites);

  analysis::PiiScanner scanner(framework.device().profile());
  auto report = scanner.Scan(*result.native_index);

  const auto& pii = Spec().pii;
  EXPECT_EQ(report.Leaks(analysis::PiiField::kDeviceType), pii.device_type);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kManufacturer),
            pii.manufacturer);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kTimezone), pii.timezone);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kResolution), pii.resolution);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kLocalIp), pii.local_ip);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kDpi), pii.dpi);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kRooted), pii.rooted);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kLocale), pii.locale);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kCountry), pii.country);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kLocation), pii.location);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kConnectionType),
            pii.connection_type);
  EXPECT_EQ(report.Leaks(analysis::PiiField::kNetworkType),
            pii.network_type);
}

TEST_P(BrowserSweep, HistoryLeakMechanismMatchesSpec) {
  auto& framework = SharedFramework();
  auto sites = Sites(framework, 6);
  auto result = core::RunCrawl(framework, Spec(), sites);

  std::vector<net::Url> visited;
  for (const auto* site : sites) visited.push_back(site->landing_url);
  analysis::HistoryLeakDetector detector(visited);

  auto native = detector.Scan(*result.native_flows, *result.native_index);
  auto engine =
      detector.Scan(*result.engine_flows, *result.engine_index, true);

  bool native_full = false, engine_full = false, host_only = false;
  for (const auto& finding : native) {
    // DoH resolvers see hostnames by design; skip them here.
    if (finding.destination_host == "cloudflare-dns.com" ||
        finding.destination_host == "dns.google") {
      continue;
    }
    if (finding.granularity == analysis::LeakGranularity::kFullUrl) {
      native_full = true;
    } else {
      host_only = true;
    }
  }
  for (const auto& finding : engine) {
    if (finding.granularity == analysis::LeakGranularity::kFullUrl) {
      engine_full = true;
    }
  }

  switch (Spec().history_leak) {
    case browser::HistoryLeak::kFullUrl:
      EXPECT_TRUE(native_full) << Spec().name;
      break;
    case browser::HistoryLeak::kJsInjection:
      EXPECT_TRUE(engine_full) << Spec().name;
      EXPECT_FALSE(native_full) << Spec().name;
      break;
    case browser::HistoryLeak::kHostOnly:
      EXPECT_TRUE(host_only) << Spec().name;
      EXPECT_FALSE(native_full) << Spec().name;
      break;
    case browser::HistoryLeak::kNone:
      EXPECT_FALSE(native_full) << Spec().name;
      EXPECT_FALSE(engine_full) << Spec().name;
      break;
  }
}

std::vector<std::string> AllBrowserNames() {
  std::vector<std::string> names;
  for (const auto& spec : browser::AllBrowserSpecs()) {
    names.push_back(spec.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllBrowsers, BrowserSweep, ::testing::ValuesIn(AllBrowserNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Cross-cutting integration scenarios
// ---------------------------------------------------------------------------

TEST(Integration, YandexEndToEndFindings) {
  core::Framework framework(SmallOptions());
  auto sites = Sites(framework, 5);
  auto result =
      core::RunCrawl(framework, *browser::FindSpec("Yandex"), sites);

  // Every visit produced one sba report and one api track request.
  const auto& sba = *framework.vendor_world().sba_yandex;
  const auto& api = *framework.vendor_world().yandex_api;
  EXPECT_EQ(sba.valid_reports(), sites.size());
  EXPECT_EQ(sba.malformed_reports(), 0u);
  // api also receives one startup ping; track reports >= visits.
  EXPECT_GE(api.reports(), sites.size());
  EXPECT_EQ(api.uuids_seen().size(), 1u);  // one stable identifier

  // The decoded URL is byte-exact.
  EXPECT_EQ(sba.last_decoded_url(), sites.back()->landing_url.Serialize());
}

TEST(Integration, PersistentIdentifierSurvivesCookieWipeAndIpChange) {
  core::Framework framework(SmallOptions());
  auto sites = Sites(framework, 2);
  const auto* yandex = browser::FindSpec("Yandex");

  core::RunCrawl(framework, *yandex, sites);
  std::string first = framework.vendor_world().yandex_api->last_uuid();

  framework.device().ClearCookies(yandex->package);
  framework.device().SetPublicIp(net::IpAddress(185, 220, 101, 9));
  core::CrawlOptions no_reset;
  no_reset.factory_reset = false;
  core::RunCrawl(framework, *yandex, sites, no_reset);
  EXPECT_EQ(framework.vendor_world().yandex_api->last_uuid(), first);

  // Only a factory reset mints a new identity.
  core::RunCrawl(framework, *yandex, sites);  // factory_reset = true
  EXPECT_NE(framework.vendor_world().yandex_api->last_uuid(), first);
}

TEST(Integration, IncognitoDoesNotStopNativeLeaks) {
  core::Framework framework(SmallOptions());
  auto sites = Sites(framework, 4);
  core::CrawlOptions incognito;
  incognito.incognito = true;

  auto result =
      core::RunCrawl(framework, *browser::FindSpec("Edge"), sites, incognito);
  EXPECT_TRUE(result.incognito_effective);
  // Bing still received every domain.
  size_t bing_reports = 0;
  for (const auto& flow : result.native_flows->ToHost("www.bing.com")) {
    if (flow.url.path() == "/api/v1/visited") ++bing_reports;
  }
  EXPECT_EQ(bing_reports, sites.size());
}

TEST(Integration, IncognitoRequestIneffectiveWithoutTheMode) {
  core::Framework framework(SmallOptions());
  auto sites = Sites(framework, 2);
  core::CrawlOptions incognito;
  incognito.incognito = true;
  auto result =
      core::RunCrawl(framework, *browser::FindSpec("QQ"), sites, incognito);
  EXPECT_FALSE(result.incognito_effective);
  for (const auto& visit : result.visits) {
    EXPECT_FALSE(visit.incognito_honored);
  }
}

TEST(Integration, UcInjectionRidesEngineTraffic) {
  core::Framework framework(SmallOptions());
  auto sites = Sites(framework, 3);
  auto result = core::RunCrawl(
      framework, *browser::FindSpec("UC International"), sites);

  auto beacons = result.engine_flows->ToHost("u.ucweb.com");
  size_t collect = 0;
  for (const auto& flow : beacons) {
    if (flow.url.path() == "/collect") ++collect;
  }
  EXPECT_EQ(collect, sites.size());
  // And not a single /collect in the native store.
  for (const auto& flow : result.native_flows->ToHost("u.ucweb.com")) {
    EXPECT_NE(flow.url.path(), "/collect");
  }
}

TEST(Integration, RequestAndVolumeStatsConsistent) {
  core::Framework framework(SmallOptions());
  auto sites = Sites(framework, 6);
  auto result =
      core::RunCrawl(framework, *browser::FindSpec("Whale"), sites);

  auto requests = analysis::ComputeRequestStats(result);
  EXPECT_EQ(requests.engine_requests, result.engine_flows->size());
  EXPECT_EQ(requests.native_requests, result.native_flows->size());
  EXPECT_GT(requests.native_ratio, 0.0);
  EXPECT_LT(requests.native_ratio, 1.0);
  EXPECT_NEAR(requests.native_ratio, result.NativeRatio(), 1e-12);

  auto volume = analysis::ComputeVolumeStats(result);
  EXPECT_GT(volume.engine_bytes, 0u);
  EXPECT_GT(volume.native_bytes, 0u);
}

TEST(Integration, NaiveSplitterMissesNativeAdCalls) {
  core::Framework framework(SmallOptions());
  auto sites = Sites(framework, 6);
  auto result = core::RunCrawl(framework, *browser::FindSpec("Kiwi"), sites);

  std::set<std::string> site_hosts;
  for (const auto* site : sites) site_hosts.insert(site->hostname);
  analysis::NaiveSplitter splitter(site_hosts);
  auto score = splitter.Evaluate(*result.engine_index, *result.native_index);
  // Kiwi's native ad-SDK calls land on web ad-tech hosts: the
  // heuristic must misclassify a meaningful number of them.
  EXPECT_GT(score.native_as_engine, 0u);
  EXPECT_LT(score.accuracy, 1.0);
  EXPECT_GT(score.accuracy, 0.5);
}

TEST(Integration, IdleCampaignTimelineMonotonic) {
  core::Framework framework(SmallOptions());
  core::IdleOptions options;
  options.duration = util::Duration::Minutes(2);
  auto result =
      core::RunIdle(framework, *browser::FindSpec("Dolphin"), options);

  ASSERT_EQ(result.cumulative_by_bucket.size(), 12u);  // 2 min / 10 s
  for (size_t i = 1; i < result.cumulative_by_bucket.size(); ++i) {
    EXPECT_GE(result.cumulative_by_bucket[i],
              result.cumulative_by_bucket[i - 1]);
  }
  EXPECT_GT(result.native_flows->size(), 0u);
  EXPECT_GT(result.ShareToHost("graph.facebook.com"), 0.0);
  EXPECT_NEAR(result.ShareToDomain("facebook.com"),
              result.ShareToHost("graph.facebook.com"), 1e-12);
}

TEST(Integration, TeardownRemovesDivertRule) {
  core::Framework framework(SmallOptions());
  size_t rules_before = framework.device().iptables().rules().size();
  framework.PrepareBrowser(*browser::FindSpec("Chrome"));
  EXPECT_EQ(framework.device().iptables().rules().size(), rules_before + 1);
  framework.TeardownBrowser();
  EXPECT_EQ(framework.device().iptables().rules().size(), rules_before);
}

TEST(Integration, DeterministicAcrossFrameworks) {
  auto run = [] {
    core::Framework framework(SmallOptions());
    auto sites = Sites(framework, 5);
    auto result =
        core::RunCrawl(framework, *browser::FindSpec("Opera"), sites);
    return std::make_pair(result.engine_flows->size(),
                          result.native_flows->size());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace panoptes
