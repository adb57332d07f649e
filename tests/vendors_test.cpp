// Vendor backends and the geo address plan.
#include <gtest/gtest.h>

#include "util/base64.h"
#include "util/json.h"
#include "util/uuid.h"
#include "vendors/geo_plan.h"
#include "vendors/servers.h"
#include "vendors/world.h"

namespace panoptes::vendors {
namespace {

net::ConnectionMeta Meta() { return net::ConnectionMeta{}; }

// The vendor hosts planned into a fresh table, with one network's
// servers bound at their slots.
struct Vendors {
  GeoPlan geo = GeoPlan::Default();
  net::HostTable table{/*seed=*/1};
  VendorPlan plan = PlanVendors(table, geo);
  net::Network network{&table, /*seed=*/2};
  VendorWorld world = BindVendors(plan, network);
};

TEST(GeoPlan, BlocksDisjointAndLabelled) {
  auto plan = GeoPlan::Default();
  const auto& ranges = plan.ranges();
  EXPECT_GE(ranges.size(), 15u);
  // Pairwise disjoint: no base of one block inside another.
  for (size_t i = 0; i < ranges.size(); ++i) {
    for (size_t j = 0; j < ranges.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(ranges[i].cidr.Contains(ranges[j].cidr.base()))
          << ranges[i].cidr.ToString() << " overlaps "
          << ranges[j].cidr.ToString();
    }
  }
  // ISO codes (suffix-stripped) and EU flags.
  for (const auto& range : ranges) {
    EXPECT_EQ(range.country_code.find('-'), std::string::npos);
    EXPECT_EQ(range.country_code.size(), 2u);
  }
}

TEST(GeoPlan, AllocatorsComeFromTheirBlocks) {
  auto plan = GeoPlan::Default();
  auto ru = plan.Allocator("RU").Next();
  bool found = false;
  for (const auto& range : plan.ranges()) {
    if (range.cidr.Contains(ru)) {
      EXPECT_EQ(range.country_code, "RU");
      EXPECT_FALSE(range.eu_member);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_THROW(plan.Allocator("ZZ"), std::out_of_range);
}

TEST(SbaYandex, AcceptsBase64UrlRejectsGarbage) {
  SbaYandexServer server;
  net::HttpRequest good;
  good.url = net::Url::MustParse("https://sba.yandex.net/report");
  good.url.AddQueryParam("url",
                         util::Base64Encode("https://mentalcare1.org/"));
  EXPECT_EQ(server.Handle(good, Meta()).status, 204);
  EXPECT_EQ(server.valid_reports(), 1u);
  EXPECT_EQ(server.last_decoded_url(), "https://mentalcare1.org/");

  net::HttpRequest missing;
  missing.url = net::Url::MustParse("https://sba.yandex.net/report");
  EXPECT_EQ(server.Handle(missing, Meta()).status, 400);

  net::HttpRequest garbage;
  garbage.url = net::Url::MustParse("https://sba.yandex.net/report");
  garbage.url.AddQueryParam("url", "!!!not-base64!!!");
  EXPECT_EQ(server.Handle(garbage, Meta()).status, 400);
  EXPECT_EQ(server.malformed_reports(), 2u);
}

TEST(YandexApi, TracksDistinctIdentifiers) {
  YandexApiServer server;
  util::Rng rng(3);
  std::string uuid = util::GenerateUuid(rng);

  net::HttpRequest request;
  request.url = net::Url::MustParse("https://api.browser.yandex.ru/track");
  request.url.AddQueryParam("uuid", uuid);
  request.url.AddQueryParam("host", "example.com");
  EXPECT_EQ(server.Handle(request, Meta()).status, 200);
  EXPECT_EQ(server.Handle(request, Meta()).status, 200);
  EXPECT_EQ(server.reports(), 2u);
  EXPECT_EQ(server.uuids_seen().size(), 1u);  // same user twice
  EXPECT_EQ(server.last_host(), "example.com");

  net::HttpRequest bad;
  bad.url = net::Url::MustParse("https://api.browser.yandex.ru/track");
  bad.url.AddQueryParam("uuid", "not-a-uuid");
  bad.url.AddQueryParam("host", "example.com");
  EXPECT_EQ(server.Handle(bad, Meta()).status, 400);
}

TEST(Oleads, ValidatesListing1Fields) {
  OleadsServer server;
  util::JsonObject body;
  body["channelId"] = "adxsdk_for_opera_ofa_final";
  body["appPackageName"] = "com.opera.browser";
  body["deviceVendor"] = "Samsung";
  body["deviceModel"] = "SM-T580";
  body["operaId"] = std::string(64, 'a');
  body["latitude"] = 35.3387;
  body["longitude"] = 25.1442;
  body["connectionType"] = "WIFI";
  body["countryCode"] = "GR";
  body["languageCode"] = "el-GR";

  net::HttpRequest request;
  request.method = net::HttpMethod::kPost;
  request.url = net::Url::MustParse("https://s-odx.oleads.com/api/v1/sdk_fetch");
  request.body = util::Json(body).Dump();
  auto response = server.Handle(request, Meta());
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(server.valid_fetches(), 1u);
  // Response carries ads.
  auto parsed = util::Json::Parse(response.body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->Find("ads")->is_array());

  // Missing operaId → rejected.
  body.erase("operaId");
  request.body = util::Json(body).Dump();
  EXPECT_EQ(server.Handle(request, Meta()).status, 400);

  // GET or wrong path → 404.
  net::HttpRequest get;
  get.url = net::Url::MustParse("https://s-odx.oleads.com/api/v1/sdk_fetch");
  EXPECT_EQ(server.Handle(get, Meta()).status, 404);
}

TEST(Doh, AnswersFromAuthoritativeZone) {
  net::Network network;
  network.Host("example.com", net::IpAddress(4, 3, 2, 1),
               std::make_shared<net::FunctionServer>(
                   [](const net::HttpRequest&, const net::ConnectionMeta&) {
                     return net::HttpResponse::Ok("x");
                   }));
  DohServer server(&network);
  net::HttpRequest query;
  query.url =
      net::Url::MustParse("https://cloudflare-dns.com/dns-query?name=example.com&type=A");
  auto response = server.Handle(query, Meta());
  EXPECT_EQ(response.status, 200);
  auto json = util::Json::Parse(response.body);
  EXPECT_EQ(json->Find("Status")->as_number(), 0);
  EXPECT_EQ(
      json->Find("Answer")->as_array().front().Find("data")->as_string(),
      "4.3.2.1");

  net::HttpRequest nx;
  nx.url = net::Url::MustParse("https://cloudflare-dns.com/dns-query?name=gone.com");
  auto nx_response = server.Handle(nx, Meta());
  EXPECT_EQ(util::Json::Parse(nx_response.body)->Find("Status")->as_number(),
            3);
  EXPECT_EQ(server.nxdomain(), 1u);
}

TEST(VendorWorld, InstallsEveryPaperHost) {
  Vendors vendors;
  const net::Network& network = vendors.network;
  const VendorWorld& world = vendors.world;

  // Hosts the paper names must exist and resolve.
  for (const char* host :
       {"sba.yandex.net", "api.browser.yandex.ru", "s-odx.oleads.com",
        "www.bing.com", "sitecheck2.opera.com", "graph.facebook.com",
        "wup.browser.qq.com", "u.ucweb.com", "cloudflare-dns.com",
        "dns.google", "news.opera-api.com"}) {
    EXPECT_NE(network.FindByHost(host), nullptr) << host;
  }
  EXPECT_NE(world.sba_yandex, nullptr);
  EXPECT_NE(world.bing, nullptr);
  EXPECT_NE(world.sitecheck, nullptr);
  EXPECT_NE(world.Telemetry("www.msn.com"), nullptr);
  EXPECT_EQ(world.Telemetry("unknown.host"), nullptr);
  // Each server is bound at its host's slot.
  EXPECT_EQ(network.ServerFor(*network.FindByHost("www.msn.com")),
            world.Telemetry("www.msn.com"));
  EXPECT_EQ(network.ServerFor(*network.FindByHost("sba.yandex.net")),
            world.sba_yandex.get());
  EXPECT_EQ(network.ServerFor(*network.FindByHost("s-odx-amer.oleads.com")),
            world.oleads.get());
}

TEST(VendorWorld, BingAndSitecheckValidateAndRecord) {
  Vendors vendors;
  VendorWorld& world = vendors.world;

  net::HttpRequest visit;
  visit.url = net::Url::MustParse(
      "https://www.bing.com/api/v1/visited?domain=clinic.example.org");
  EXPECT_EQ(world.bing->Handle(visit, Meta()).status, 200);
  ASSERT_EQ(world.bing->visit_reports(), 1u);
  EXPECT_EQ(world.bing->domains_seen().front(), "clinic.example.org");

  net::HttpRequest missing;
  missing.url = net::Url::MustParse("https://www.bing.com/api/v1/visited");
  EXPECT_EQ(world.bing->Handle(missing, Meta()).status, 400);

  net::HttpRequest ping;
  ping.url = net::Url::MustParse("https://www.bing.com/api/ping");
  EXPECT_EQ(world.bing->Handle(ping, Meta()).status, 200);
  EXPECT_EQ(world.bing->other_hits(), 1u);

  net::HttpRequest check;
  check.url = net::Url::MustParse(
      "https://sitecheck2.opera.com/api/check?host=clinic.example.org");
  auto verdict = world.sitecheck->Handle(check, Meta());
  EXPECT_EQ(verdict.status, 200);
  EXPECT_NE(verdict.body.find("\"verdict\":\"clean\""), std::string::npos);
  EXPECT_EQ(world.sitecheck->hosts_seen().front(), "clinic.example.org");

  net::HttpRequest bad_check;
  bad_check.url = net::Url::MustParse("https://sitecheck2.opera.com/api/check");
  EXPECT_EQ(world.sitecheck->Handle(bad_check, Meta()).status, 400);
}

TEST(VendorWorld, GeoPlacementMatchesPaperSection34) {
  Vendors vendors;

  auto country_of = [&](const char* host) -> std::string {
    auto ip = vendors.network.zone().Lookup(host);
    if (!ip) return "";
    for (const auto& range : vendors.geo.ranges()) {
      if (range.cidr.Contains(*ip)) return range.country_code;
    }
    return "?";
  };
  EXPECT_EQ(country_of("sba.yandex.net"), "RU");
  EXPECT_EQ(country_of("api.browser.yandex.ru"), "RU");
  EXPECT_EQ(country_of("wup.browser.qq.com"), "CN");
  EXPECT_EQ(country_of("u.ucweb.com"), "CA");
  EXPECT_EQ(country_of("sitecheck2.opera.com"), "NO");
  EXPECT_EQ(country_of("api-whale.naver.com"), "KR");
  EXPECT_EQ(country_of("browser.coccoc.com"), "VN");
}

TEST(Telemetry, RecordsLastRequest) {
  TelemetryServer server("test");
  net::HttpRequest request;
  request.url = net::Url::MustParse("https://t.example/v1/ping?x=1");
  request.body = "{\"k\":1}";
  auto response = server.Handle(request, Meta());
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(server.hits(), 1u);
  EXPECT_EQ(server.last_target(), "/v1/ping?x=1");
  EXPECT_EQ(server.last_body(), "{\"k\":1}");
}

}  // namespace
}  // namespace panoptes::vendors
