// Sized response bodies against the materialized-body oracle: every
// request the generated web answers with filler must look the same on
// the wire whether the filler bytes are held or only counted.
#include <gtest/gtest.h>

#include <map>

#include "oracle/filler_bodies.h"
#include "util/json.h"
#include "web/origin_server.h"
#include "web/world.h"

namespace panoptes::web {
namespace {

TEST(FillerBody, ExactSize) {
  EXPECT_EQ(oracle::FillerBody("tag", 1000).size(), 1000u);
  EXPECT_EQ(oracle::FillerBody("tag", 0).size(), 0u);
  EXPECT_EQ(oracle::FillerBody("tag", 3).size(), 3u);
  // The ad creative's alphabet needs no JSON escaping, which is what
  // lets a bid carry its creative as a sized tail.
  std::string creative = oracle::FillerBody("creative", 1501);
  EXPECT_EQ(util::Json(creative).Dump(), "\"" + creative + "\"");
}

// Asserts that `sized` and the oracle's `materialized` response agree
// on everything a flow records or a client frames by.
void ExpectSameOnTheWire(const net::HttpResponse& sized,
                         const net::HttpResponse& materialized) {
  EXPECT_EQ(sized.status, materialized.status);
  EXPECT_EQ(sized.headers.entries(), materialized.headers.entries());
  EXPECT_EQ(sized.headers.Get("Content-Length"),
            std::to_string(materialized.body.size()));
  EXPECT_EQ(sized.body.size() + sized.sized_bytes,
            materialized.body.size());
  EXPECT_EQ(sized.WireSize(), materialized.WireSize());
  EXPECT_EQ(materialized.sized_bytes, 0u);
}

struct Coverage {
  size_t origin = 0;
  std::map<ThirdPartyKind, size_t> third_party;
  uint64_t sized_bytes = 0;
};

// Replays every subresource request of every site in `world` against a
// fresh origin or third-party server and against the oracle.
Coverage CheckWorld(const std::shared_ptr<const World>& world) {
  std::map<std::string, ThirdPartyServer> third_parties;
  for (const auto& service : ThirdPartyPool()) {
    third_parties.try_emplace(service.request_host, service);
  }
  Coverage coverage;
  net::ConnectionMeta meta;
  for (size_t i = 0; i < world->size(); ++i) {
    const Site& site = world->site(i);
    OriginServer origin(world, i);
    for (const auto& resource : site.resources) {
      SCOPED_TRACE(resource.url.Serialize());
      net::HttpRequest request;
      request.url = resource.url;
      net::HttpResponse sized;
      if (!resource.third_party) {
        auto materialized = oracle::MaterializedSubresource(site, request);
        if (!materialized) {
          ADD_FAILURE() << "no first-party resource at this path";
          continue;
        }
        sized = origin.Handle(request, meta);
        ExpectSameOnTheWire(sized, *materialized);
        EXPECT_TRUE(sized.body.empty());
        ++coverage.origin;
      } else {
        auto server = third_parties.find(std::string(resource.url.host()));
        if (server == third_parties.end()) {
          ADD_FAILURE() << "no third-party server for this host";
          continue;
        }
        const ThirdPartyService& service = server->second.service();
        net::HttpResponse materialized =
            oracle::MaterializedThirdParty(service, request);
        sized = server->second.Handle(request, meta);
        ExpectSameOnTheWire(sized, materialized);
        if (service.kind == ThirdPartyKind::kAd) {
          // The held head is the materialized bid with its creative
          // emptied; the creative's length is the sized tail.
          auto bid = util::Json::Parse(materialized.body);
          if (!bid || !bid->is_object()) {
            ADD_FAILURE() << "oracle bid is not a JSON object";
            continue;
          }
          util::JsonObject head = bid->as_object();
          EXPECT_EQ(sized.sized_bytes, head["adm"].as_string().size());
          head["adm"] = "";
          EXPECT_EQ(sized.body, util::Json(std::move(head)).Dump());
        } else {
          EXPECT_TRUE(sized.body.empty());
        }
        ++coverage.third_party[service.kind];
      }
      coverage.sized_bytes += sized.sized_bytes;
    }
  }
  return coverage;
}

TEST(SizedBody, MatchesTheMaterializedOracleOverGeneratedCatalogs) {
  SiteGenOptions smuggling;  // what `fleet --smuggling 0.5` generates
  smuggling.bounce_fraction = 0.5;
  smuggling.decoration_fraction = 0.5;
  smuggling.plain_http_fraction = 0.2;
  for (uint64_t seed : {20231024ULL, 20240521ULL}) {
    for (const SiteGenOptions& sitegen : {SiteGenOptions{}, smuggling}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", decoration " +
                   std::to_string(sitegen.decoration_fraction));
      CatalogOptions options;
      options.popular_count = 30;
      options.sensitive_count = 20;
      options.sitegen = sitegen;
      auto world = World::Build(seed, options);
      Coverage coverage = CheckWorld(world);
      // Every kind of sized response was exercised, not just some.
      EXPECT_GT(coverage.origin, 0u);
      for (ThirdPartyKind kind :
           {ThirdPartyKind::kAd, ThirdPartyKind::kAnalytics,
            ThirdPartyKind::kSocial, ThirdPartyKind::kCdn,
            ThirdPartyKind::kFont}) {
        EXPECT_GT(coverage.third_party[kind], 0u)
            << ThirdPartyKindName(kind);
      }
      EXPECT_GT(coverage.sized_bytes, 0u);
    }
  }
}

TEST(SizedBody, LandingAndErrorBodiesStayMaterialized) {
  CatalogOptions options;
  options.popular_count = 4;
  options.sensitive_count = 0;
  auto world = World::Build(20231024, options);
  OriginServer origin(world, 0);
  net::ConnectionMeta meta;
  net::HttpRequest landing;
  landing.url = world->site(0).landing_url;
  auto page = origin.Handle(landing, meta);
  EXPECT_EQ(page.body, world->landing_html(0));
  EXPECT_EQ(page.sized_bytes, 0u);

  net::HttpRequest missing;
  missing.url = net::Url::MustParse(
      landing.url.Origin() + "/not/there");
  auto error = origin.Handle(missing, meta);
  EXPECT_EQ(error.status, 404);
  EXPECT_FALSE(error.body.empty());
  EXPECT_EQ(error.sized_bytes, 0u);
}

}  // namespace
}  // namespace panoptes::web
