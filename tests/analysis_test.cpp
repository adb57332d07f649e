// Analysis pipeline unit tests: hosts list, PII scanner, history-leak
// detector, GeoIP, report rendering.
#include <gtest/gtest.h>

#include "analysis/flow_index.h"
#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/hostslist.h"
#include "analysis/pii.h"
#include "analysis/report.h"
#include "util/base64.h"
#include "util/json.h"

namespace panoptes::analysis {
namespace {

proxy::Flow FlowTo(std::string_view url, std::string body = {}) {
  proxy::Flow flow;
  flow.url = net::Url::MustParse(url);
  flow.request_body = std::move(body);
  return flow;
}

TEST(HostsListTest, DefaultCoversPaperClassifications) {
  auto list = HostsList::Default();
  EXPECT_TRUE(list.IsAdRelated("ad.doubleclick.net"));
  EXPECT_TRUE(list.IsAdRelated("fastlane.rubiconproject.com"));
  EXPECT_TRUE(list.IsAdRelated("app.adjust.com"));
  EXPECT_TRUE(list.IsAdRelated("inapps.appsflyersdk.com"));
  EXPECT_TRUE(list.IsAdRelated("s-odx.oleads.com"));
  EXPECT_TRUE(list.IsAdRelated("mobile.yandexadexchange.net"));
  EXPECT_TRUE(list.IsAdRelated("graph.facebook.com"));
  // But not vendor/first-party infra or plain sites.
  EXPECT_FALSE(list.IsAdRelated("www.facebook.com"));
  EXPECT_FALSE(list.IsAdRelated("sba.yandex.net"));
  EXPECT_FALSE(list.IsAdRelated("www.bing.com"));
  EXPECT_FALSE(list.IsAdRelated("example.com"));
}

TEST(HostsListTest, ParseHostsFileSyntax) {
  auto list = HostsList::Parse(
      "# comment\n"
      "0.0.0.0 evil-ads.com\n"
      "127.0.0.1 tracker.net\n"
      "bare-domain.org\n"
      "\n");
  EXPECT_EQ(list.size(), 3u);
  EXPECT_TRUE(list.IsAdRelated("evil-ads.com"));
  EXPECT_TRUE(list.IsAdRelated("sub.evil-ads.com"));  // parent matching
  EXPECT_TRUE(list.IsAdRelated("bare-domain.org"));
  EXPECT_FALSE(list.IsAdRelated("good.com"));
}

// ---------------------------------------------------------------------------
// PII scanner
// ---------------------------------------------------------------------------

class PiiTest : public ::testing::Test {
 protected:
  PiiTest() : scanner_(device::DeviceProfile::PaperTestbed()) {}
  PiiScanner scanner_;
};

TEST_F(PiiTest, DetectsQueryParamFields) {
  proxy::FlowStore store;
  store.Add(FlowTo(
      "https://v.example/t?devtype=TABLET&manuf=Samsung&res=1200x1920"
      "&dpi=240&locale=el-GR&net=WIFI&tz=Europe%2FAthens"));
  auto report = scanner_.Scan(FlowIndex::Build(store));
  EXPECT_TRUE(report.Leaks(PiiField::kDeviceType));
  EXPECT_TRUE(report.Leaks(PiiField::kManufacturer));
  EXPECT_TRUE(report.Leaks(PiiField::kResolution));
  EXPECT_TRUE(report.Leaks(PiiField::kDpi));
  EXPECT_TRUE(report.Leaks(PiiField::kLocale));
  EXPECT_TRUE(report.Leaks(PiiField::kNetworkType));
  EXPECT_TRUE(report.Leaks(PiiField::kTimezone));
  EXPECT_FALSE(report.Leaks(PiiField::kLocalIp));
  EXPECT_FALSE(report.Leaks(PiiField::kRooted));
  EXPECT_EQ(report.LeakCount(), 7u);
}

TEST_F(PiiTest, DetectsJsonBodyFields) {
  proxy::FlowStore store;
  util::JsonObject body;
  body["localIp"] = "192.168.1.42";
  body["rooted"] = false;
  body["countryCode"] = "GR";
  body["latitude"] = 35.3387;
  body["longitude"] = 25.1442;
  body["metering"] = "UNMETERED";
  body["deviceScreenWidth"] = 1200;
  body["deviceScreenHeight"] = 1920;
  store.Add(FlowTo("https://v.example/collect",
                   util::Json(std::move(body)).Dump()));
  auto report = scanner_.Scan(FlowIndex::Build(store));
  EXPECT_TRUE(report.Leaks(PiiField::kLocalIp));
  EXPECT_TRUE(report.Leaks(PiiField::kRooted));
  EXPECT_TRUE(report.Leaks(PiiField::kCountry));
  EXPECT_TRUE(report.Leaks(PiiField::kLocation));
  EXPECT_TRUE(report.Leaks(PiiField::kConnectionType));
  EXPECT_TRUE(report.Leaks(PiiField::kResolution));
}

TEST_F(PiiTest, DetectsBase64WrappedValues) {
  proxy::FlowStore store;
  store.Add(FlowTo("https://v.example/t?blob=" +
                   util::Base64Encode("res=1200x1920")));
  // Base64 of a string containing the resolution value still only
  // triggers when decoded text matches a discrete value; use a direct
  // value payload instead.
  proxy::FlowStore direct;
  direct.Add(FlowTo("https://v.example/t?enc=" +
                    util::Base64Encode("Europe/Athens")));
  auto report = scanner_.Scan(FlowIndex::Build(direct));
  EXPECT_TRUE(report.Leaks(PiiField::kTimezone));
}

TEST_F(PiiTest, NoFalsePositivesOnCleanTraffic) {
  proxy::FlowStore store;
  store.Add(FlowTo("https://clean.example/api?q=search+terms&page=2"));
  store.Add(FlowTo("https://clean.example/collect", "{\"event\":\"click\"}"));
  // Country code "GR" without a country-ish key must not trigger.
  store.Add(FlowTo("https://clean.example/x?grade=GR"));
  // "240" without a dpi-ish key must not trigger.
  store.Add(FlowTo("https://clean.example/x?width=240"));
  auto report = scanner_.Scan(FlowIndex::Build(store));
  EXPECT_EQ(report.LeakCount(), 0u);
}

TEST_F(PiiTest, EvidenceDeduplicatedPerFieldHost) {
  proxy::FlowStore store;
  store.Add(FlowTo("https://v.example/a?manuf=Samsung"));
  store.Add(FlowTo("https://v.example/b?manuf=Samsung"));
  auto report = scanner_.Scan(FlowIndex::Build(store));
  EXPECT_EQ(report.evidence.size(), 1u);
}

// Dedup keys on the hash of the FULL value, not the 80-byte sample: two
// long payloads sharing a prefix are distinct sightings, the same value
// re-sent is one.
TEST_F(PiiTest, LongValuesSharingAPrefixAreDistinctEvidence) {
  std::string shared_prefix = "35.33" + std::string(90, 'x');
  proxy::FlowStore store;
  store.Add(FlowTo("https://v.example/a?lat=" + shared_prefix + "AAAA"));
  store.Add(FlowTo("https://v.example/b?lat=" + shared_prefix + "BBBB"));
  // And the first payload again: deduplicated against itself.
  store.Add(FlowTo("https://v.example/c?lat=" + shared_prefix + "AAAA"));
  auto report = scanner_.Scan(FlowIndex::Build(store));
  EXPECT_TRUE(report.Leaks(PiiField::kLocation));
  ASSERT_EQ(report.evidence.size(), 2u);
  // Identical truncated samples, distinct hashes.
  EXPECT_EQ(report.evidence[0].sample, report.evidence[1].sample);
  EXPECT_NE(report.evidence[0].value_hash, report.evidence[1].value_hash);
}

TEST_F(PiiTest, DistinctShortValuesAreDistinctEvidence) {
  proxy::FlowStore store;
  store.Add(FlowTo("https://v.example/a?rooted=true"));
  store.Add(FlowTo("https://v.example/b?rooted=false"));
  store.Add(FlowTo("https://v.example/c?rooted=true"));
  auto report = scanner_.Scan(FlowIndex::Build(store));
  EXPECT_TRUE(report.Leaks(PiiField::kRooted));
  EXPECT_EQ(report.evidence.size(), 2u);
}

TEST_F(PiiTest, SampleTruncationRespectsUtf8Boundaries) {
  // 79 ASCII bytes, then a two-byte UTF-8 character straddling the
  // 80-byte sample limit: the whole character must be dropped, never
  // split into a mangled lead byte.
  std::string value = "35.33" + std::string(74, 'x') + "\xCE\xB1";
  ASSERT_EQ(value.size(), 81u);
  proxy::FlowStore store;
  store.Add(FlowTo("https://v.example/a?lat=" + value));
  auto report = scanner_.Scan(FlowIndex::Build(store));
  ASSERT_EQ(report.evidence.size(), 1u);
  EXPECT_EQ(report.evidence[0].sample,
            "lat=" + value.substr(0, 79));
}

TEST_F(PiiTest, FieldNames) {
  EXPECT_EQ(PiiFieldName(PiiField::kLocalIp), "Local IP");
  EXPECT_EQ(PiiFieldName(PiiField::kRooted), "Rooted Status");
}

// ---------------------------------------------------------------------------
// History-leak detector
// ---------------------------------------------------------------------------

class LeakTest : public ::testing::Test {
 protected:
  LeakTest()
      : detector_({net::Url::MustParse("https://mentalcare42.org/"),
                   net::Url::MustParse("https://shop.example.com/")}) {}
  HistoryLeakDetector detector_;
};

TEST_F(LeakTest, FullUrlPlainInBody) {
  proxy::FlowStore store;
  store.Add(FlowTo("https://wup.browser.qq.com/phone_home",
                   "{\"url\":\"https://mentalcare42.org/\"}"));
  auto findings = detector_.Scan(store, FlowIndex::Build(store));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].granularity, LeakGranularity::kFullUrl);
  EXPECT_EQ(findings[0].encoding, "plain");
  EXPECT_EQ(findings[0].destination_host, "wup.browser.qq.com");
}

TEST_F(LeakTest, FullUrlBase64InQuery) {
  proxy::FlowStore store;
  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://sba.yandex.net/report");
  flow.url.AddQueryParam(
      "url", util::Base64Encode("https://mentalcare42.org/"));
  store.Add(flow);
  auto findings = detector_.Scan(store, FlowIndex::Build(store));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].granularity, LeakGranularity::kFullUrl);
  EXPECT_EQ(findings[0].encoding, "base64");
}

TEST_F(LeakTest, HostOnlyDetectedSeparately) {
  proxy::FlowStore store;
  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://www.bing.com/api/v1/visited");
  flow.url.AddQueryParam("domain", "mentalcare42.org");
  store.Add(flow);
  auto findings = detector_.Scan(store, FlowIndex::Build(store));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].granularity, LeakGranularity::kHostOnly);
}

TEST_F(LeakTest, PersistentIdentifierFlagged) {
  proxy::FlowStore store;
  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://api.browser.yandex.ru/track");
  flow.url.AddQueryParam("uuid", "3f2b9a64-5e1c-4d7a-9b0e-2f6c8d1a7e43");
  flow.url.AddQueryParam("host", "mentalcare42.org");
  store.Add(flow);
  auto findings = detector_.Scan(store, FlowIndex::Build(store));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].persistent_identifier);
  EXPECT_EQ(findings[0].identifier_sample,
            "3f2b9a64-5e1c-4d7a-9b0e-2f6c8d1a7e43");
}

TEST_F(LeakTest, VisitedSitesThemselvesAreNotLeaks) {
  proxy::FlowStore store;
  store.Add(FlowTo("https://mentalcare42.org/page"));
  store.Add(FlowTo("https://shop.example.com/?ref=https://mentalcare42.org/"));
  auto findings = detector_.Scan(store, FlowIndex::Build(store));
  EXPECT_TRUE(findings.empty());  // both destinations are visited sites
}

TEST_F(LeakTest, CleanTrafficNoFindings) {
  proxy::FlowStore store;
  store.Add(FlowTo("https://update.vendor.com/check?v=1.2.3"));
  EXPECT_TRUE(detector_.Scan(store, FlowIndex::Build(store)).empty());
}

TEST_F(LeakTest, EngineStoreMarksInjection) {
  proxy::FlowStore store;
  proxy::Flow flow;
  flow.url = net::Url::MustParse("https://u.ucweb.com/collect");
  flow.url.AddQueryParam("pv", "https://mentalcare42.org/");
  store.Add(flow);
  auto findings = detector_.Scan(store, FlowIndex::Build(store),
                                 /*engine_store=*/true);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].via_engine_injection);
}

TEST(LooksLikeIdentifierTest, Shapes) {
  EXPECT_TRUE(LooksLikeIdentifier("3f2b9a64-5e1c-4d7a-9b0e-2f6c8d1a7e43"));
  EXPECT_TRUE(LooksLikeIdentifier(std::string(64, 'a')));
  EXPECT_TRUE(LooksLikeIdentifier("0123456789abcdef"));
  EXPECT_FALSE(LooksLikeIdentifier("0123456789abcde"));   // 15 chars
  EXPECT_FALSE(LooksLikeIdentifier("hello-world-not-hex!"));
  EXPECT_FALSE(LooksLikeIdentifier("example.com"));
}

// ---------------------------------------------------------------------------
// GeoIP
// ---------------------------------------------------------------------------

TEST(GeoIp, LongestPrefixWins) {
  GeoIpDb db;
  db.AddRange({*net::Cidr::Parse("10.0.0.0/8"), "US", "United States",
               false, "US"});
  db.AddRange({*net::Cidr::Parse("10.1.0.0/16"), "DE", "Germany", true,
               "DE"});
  EXPECT_EQ(db.Lookup(net::IpAddress(10, 1, 2, 3))->country_code, "DE");
  EXPECT_EQ(db.Lookup(net::IpAddress(10, 2, 0, 1))->country_code, "US");
  EXPECT_FALSE(db.Lookup(net::IpAddress(99, 0, 0, 1)).has_value());
}

TEST(GeoIp, CountriesContactedGroupsAndSorts) {
  GeoIpDb db;
  db.AddRange({*net::Cidr::Parse("77.88.0.0/18"), "RU", "Russia", false,
               "RU"});
  db.AddRange({*net::Cidr::Parse("94.66.0.0/15"), "GR", "Greece", true,
               "GR"});
  proxy::FlowStore store;
  for (int i = 0; i < 3; ++i) {
    proxy::Flow flow = FlowTo("https://sba.yandex.net/r");
    flow.server_ip = net::IpAddress(77, 88, 0, 1);
    store.Add(flow);
  }
  proxy::Flow gr = FlowTo("https://local.gr/x");
  gr.server_ip = net::IpAddress(94, 66, 0, 1);
  store.Add(gr);

  auto countries = CountriesContacted(FlowIndex::Build(store), db);
  ASSERT_EQ(countries.size(), 2u);
  EXPECT_EQ(countries[0].country_code, "RU");
  EXPECT_EQ(countries[0].flows, 3u);
  EXPECT_FALSE(countries[0].eu_member);
  EXPECT_EQ(countries[0].hosts.size(), 1u);
  EXPECT_TRUE(countries[1].eu_member);
}

TEST(GeoIp, ClassifyTransfers) {
  GeoIpDb db;
  db.AddRange({*net::Cidr::Parse("77.88.0.0/18"), "RU", "Russia", false,
               "RU"});
  proxy::FlowStore store;
  proxy::Flow flow = FlowTo("https://sba.yandex.net/r");
  flow.server_ip = net::IpAddress(77, 88, 0, 1);
  store.Add(flow);

  auto transfers = ClassifyTransfers(
      FlowIndex::Build(store), {"sba.yandex.net", "not-contacted.com"}, db);
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(transfers[0].country_name, "Russia");
  EXPECT_TRUE(transfers[0].outside_eu);
}

// ---------------------------------------------------------------------------
// Report helpers
// ---------------------------------------------------------------------------

TEST(Report, TextTableAligns) {
  TextTable table({"A", "Browser"});
  table.AddRow({"1", "Yandex"});
  table.AddRow({"22", "Edge"});
  std::string rendered = table.Render();
  EXPECT_NE(rendered.find("A   Browser"), std::string::npos);
  EXPECT_NE(rendered.find("22  Edge"), std::string::npos);
  EXPECT_NE(rendered.find("---"), std::string::npos);
}

TEST(Report, Formatters) {
  EXPECT_EQ(Ratio(0.391), "0.391");
  EXPECT_EQ(Percent(0.392), "39.2%");
  EXPECT_EQ(Percent(0.06667, 1), "6.7%");
  EXPECT_EQ(Bytes(512), "512 B");
  EXPECT_EQ(Bytes(2048), "2.0 KB");
  EXPECT_EQ(Bytes(5 * 1024 * 1024), "5.0 MB");
}

}  // namespace
}  // namespace panoptes::analysis
