// Web substrate tests: third-party pool, site generation, catalog,
// origin servers, EasyList filter engine.
#include <gtest/gtest.h>

#include "net/fabric.h"
#include "web/catalog.h"
#include "web/easylist.h"
#include "web/origin_server.h"
#include "web/sitegen.h"
#include "web/thirdparty.h"
#include "web/world.h"

namespace panoptes::web {
namespace {

TEST(ThirdParty, PoolCoversPaperDomains) {
  // Every ad/analytics domain the paper names must be in the pool.
  for (const char* domain :
       {"rubiconproject.com", "adnxs.com", "openx.net", "pubmatic.com",
        "bidswitch.net", "demdex.net", "doubleclick.net",
        "appsflyersdk.com", "adjust.com", "outbrain.com", "zemanta.com",
        "scorecardresearch.com"}) {
    EXPECT_TRUE(IsAdOrAnalyticsDomain(domain)) << domain;
  }
  EXPECT_TRUE(IsAdOrAnalyticsDomain("subhost.doubleclick.net"));
  EXPECT_FALSE(IsAdOrAnalyticsDomain("jsdelivr.net"));   // CDN
  EXPECT_FALSE(IsAdOrAnalyticsDomain("facebook.net"));   // social
  EXPECT_FALSE(IsAdOrAnalyticsDomain("example.com"));
}

TEST(ThirdParty, ServicesOfKind) {
  auto ads = ServicesOfKind(ThirdPartyKind::kAd);
  EXPECT_GE(ads.size(), 10u);
  for (const auto& service : ads) {
    EXPECT_EQ(service.kind, ThirdPartyKind::kAd);
  }
}

TEST(SiteGen, DeterministicFromSeed) {
  util::Rng rng_a(77), rng_b(77);
  Site a = GenerateSite("example.com", SiteCategory::kPopular, 1, rng_a);
  Site b = GenerateSite("example.com", SiteCategory::kPopular, 1, rng_b);
  ASSERT_EQ(a.resources.size(), b.resources.size());
  for (size_t i = 0; i < a.resources.size(); ++i) {
    EXPECT_EQ(a.resources[i].url, b.resources[i].url);
    EXPECT_EQ(a.resources[i].body_size, b.resources[i].body_size);
  }
  EXPECT_EQ(a.document_size, b.document_size);
}

TEST(SiteGen, StructureSane) {
  util::Rng rng(78);
  Site site = GenerateSite("shop.com", SiteCategory::kPopular, 3, rng);
  EXPECT_GE(site.resources.size(), 3u);
  EXPECT_LE(site.resources.size(), 80u);
  EXPECT_EQ(site.landing_url.Serialize(), "https://shop.com/");
  bool has_third_party = false;
  for (const auto& resource : site.resources) {
    EXPECT_GT(resource.body_size, 0u);
    if (resource.third_party) {
      has_third_party = true;
      EXPECT_NE(resource.url.host(), site.hostname);
    } else {
      EXPECT_EQ(resource.url.host(), site.hostname);
    }
  }
  EXPECT_TRUE(has_third_party);  // overwhelmingly likely at 45%
}

TEST(SiteGen, RenderedHtmlReferencesAllResources) {
  util::Rng rng(79);
  Site site = GenerateSite("news.org", SiteCategory::kHealth, 1, rng);
  std::string html = RenderLandingHtml(site);
  for (const auto& resource : site.resources) {
    EXPECT_NE(html.find(resource.url.Serialize()), std::string::npos)
        << resource.url.Serialize();
  }
  // Padding keeps the document near its declared size.
  EXPECT_GE(html.size() + 128, site.document_size);
}

TEST(Catalog, GeneratesRequestedCounts) {
  CatalogOptions options;
  options.popular_count = 20;
  options.sensitive_count = 12;
  auto catalog = SiteCatalog::Generate(1, options);
  EXPECT_EQ(catalog.sites().size(), 32u);
  EXPECT_EQ(catalog.PopularSites().size(), 20u);
  EXPECT_EQ(catalog.SensitiveSites().size(), 12u);
  // Even split across the four sensitive categories.
  EXPECT_EQ(catalog.SitesInCategory(SiteCategory::kSociety).size(), 3u);
  EXPECT_EQ(catalog.SitesInCategory(SiteCategory::kHealth).size(), 3u);
}

TEST(Catalog, HostnamesUniqueAndFindable) {
  CatalogOptions options;
  options.popular_count = 120;
  options.sensitive_count = 80;
  auto catalog = SiteCatalog::Generate(2, options);
  std::set<std::string> names;
  for (const auto& site : catalog.sites()) {
    EXPECT_TRUE(names.insert(site.hostname).second) << site.hostname;
  }
  const auto& first = catalog.sites().front();
  EXPECT_EQ(catalog.FindByHost(first.hostname), &first);
  EXPECT_EQ(catalog.FindByHost("not-a-site.zz"), nullptr);
}

TEST(Catalog, DeterministicAcrossRuns) {
  auto a = SiteCatalog::Generate(3, {});
  auto b = SiteCatalog::Generate(3, {});
  ASSERT_EQ(a.sites().size(), b.sites().size());
  for (size_t i = 0; i < a.sites().size(); i += 97) {
    EXPECT_EQ(a.sites()[i].hostname, b.sites()[i].hostname);
    EXPECT_EQ(a.sites()[i].resources.size(), b.sites()[i].resources.size());
  }
}

TEST(OriginServer, ServesLandingAndResources) {
  util::Rng rng(80);
  Site site = GenerateSite("shop.com", SiteCategory::kPopular, 1, rng);
  OriginServer server(World::FromSites({site}), 0);

  net::HttpRequest request;
  request.url = site.landing_url;
  net::ConnectionMeta meta;
  auto landing = server.Handle(request, meta);
  EXPECT_EQ(landing.status, 200);
  EXPECT_TRUE(landing.headers.Has("Set-Cookie"));
  EXPECT_NE(landing.body.find("<!doctype html>"), std::string::npos);

  // First first-party resource must be fetchable with the right size.
  for (const auto& resource : site.resources) {
    if (resource.third_party) continue;
    net::HttpRequest sub;
    sub.url = resource.url;
    auto response = server.Handle(sub, meta);
    EXPECT_EQ(response.status, 200);
    // Sized: the whole body is counted on the wire, none of it held.
    EXPECT_EQ(response.body.size() + response.sized_bytes,
              resource.body_size);
    EXPECT_EQ(response.headers.Get("Content-Length"),
              std::to_string(resource.body_size));
    EXPECT_GE(response.WireSize(), resource.body_size);
    break;
  }

  net::HttpRequest missing;
  missing.url = net::Url::MustParse("https://shop.com/definitely/missing");
  EXPECT_EQ(server.Handle(missing, meta).status, 404);
  EXPECT_GE(server.hits(), 3u);
}

TEST(ThirdPartyServer, DeterministicBodies) {
  ThirdPartyServer server(ThirdPartyPool().front());  // doubleclick (ad)
  net::HttpRequest request;
  request.url = net::Url::MustParse("https://ad.doubleclick.net/bid?x=1");
  net::ConnectionMeta meta;
  auto a = server.Handle(request, meta);
  auto b = server.Handle(request, meta);
  EXPECT_EQ(a.status, 200);
  EXPECT_EQ(a.body, b.body);  // the bid's JSON head
  EXPECT_GT(a.sized_bytes, 0u);  // its ad creative
  EXPECT_EQ(a.sized_bytes, b.sized_bytes);
  EXPECT_EQ(a.WireSize(), b.WireSize());
  EXPECT_EQ(a.headers.Get("Content-Length"),
            std::to_string(a.body.size() + a.sized_bytes));
}

TEST(EasyList, ParseAndMatch) {
  auto list = FilterList::Parse(
      "! comment line\n"
      "||doubleclick.net^\n"
      "||tracker.example.com^$third-party\n"
      "/banner_ads/\n"
      "@@||doubleclick.net^$third-party\n"
      "||unsupported.com^$script,image\n");  // unsupported → dropped
  EXPECT_EQ(list.rule_count(), 4u);

  // Domain-anchored block.
  EXPECT_TRUE(list.ShouldBlock(
      net::Url::MustParse("https://sub.tracker.example.com/x"),
      "news.org"));
  // Same-site requests escape $third-party rules.
  EXPECT_FALSE(list.ShouldBlock(
      net::Url::MustParse("https://tracker.example.com/x"),
      "tracker.example.com"));
  // Substring rule.
  EXPECT_TRUE(list.ShouldBlock(
      net::Url::MustParse("https://cdn.site.com/banner_ads/1.jpg"),
      "site.com"));
  // Exception overrides the block.
  EXPECT_FALSE(list.ShouldBlock(
      net::Url::MustParse("https://ad.doubleclick.net/bid"), "news.org"));
  // Unlisted hosts pass.
  EXPECT_FALSE(list.ShouldBlock(
      net::Url::MustParse("https://images.site.com/logo.png"), "site.com"));
}

TEST(EasyList, DefaultListBlocksAdsNotCdns) {
  auto list = FilterList::DefaultEasyList();
  EXPECT_GT(list.rule_count(), 10u);
  EXPECT_TRUE(list.ShouldBlock(
      net::Url::MustParse("https://fastlane.rubiconproject.com/a"),
      "shop.com"));
  EXPECT_TRUE(list.ShouldBlock(
      net::Url::MustParse("https://www.google-analytics.com/collect"),
      "shop.com"));
  EXPECT_FALSE(list.ShouldBlock(
      net::Url::MustParse("https://cdn.jsdelivr.net/lib.js"), "shop.com"));
  EXPECT_FALSE(list.ShouldBlock(
      net::Url::MustParse("https://fonts.gstatic.com/s/f.woff2"),
      "shop.com"));
}

TEST(World, BuildMatchesItsCatalogAndIdentity) {
  CatalogOptions options;
  options.popular_count = 5;
  options.sensitive_count = 3;
  auto world = World::Build(9, options);
  auto catalog = SiteCatalog::Generate(9, options);
  ASSERT_EQ(world->size(), catalog.sites().size());
  for (size_t i = 0; i < world->size(); ++i) {
    EXPECT_EQ(world->site(i).hostname, catalog.sites()[i].hostname);
    EXPECT_EQ(world->landing_html(i), RenderLandingHtml(catalog.sites()[i]));
  }

  EXPECT_TRUE(world->Matches(9, options));
  EXPECT_FALSE(world->Matches(10, options));
  CatalogOptions other = options;
  other.sitegen.bounce_fraction = 0.5;
  EXPECT_FALSE(world->Matches(9, other));
  // Hand-built sites carry no generator identity.
  EXPECT_FALSE(World::FromSites(catalog.sites())->Matches(9, options));
}

TEST(InstallWeb, BindsEverySiteAndService) {
  CatalogOptions options;
  options.popular_count = 10;
  options.sensitive_count = 6;
  auto world = World::Build(4, options);
  net::HostTable table(/*seed=*/1);
  std::vector<net::IpAllocator> origins = {
      net::IpAllocator(*net::Cidr::Parse("104.16.0.0/16"))};
  net::IpAllocator third(*net::Cidr::Parse("142.250.0.0/16"));
  WebPlan plan = PlanWeb(*world, table, origins, third);
  net::Network network(&table);
  BindWeb(world, plan, network);

  for (size_t i = 0; i < world->size(); ++i) {
    const Site& site = world->site(i);
    const net::HostRecord* record = network.FindByHost(site.hostname);
    ASSERT_NE(record, nullptr) << site.hostname;
    EXPECT_EQ(record->slot, plan.site_slots[i]);
    EXPECT_EQ(network.zone().Lookup(site.hostname), record->ip);
    // Each origin serves its own slot of the shared world.
    auto* origin =
        dynamic_cast<const OriginServer*>(network.ServerFor(*record));
    ASSERT_NE(origin, nullptr) << site.hostname;
    EXPECT_EQ(&origin->site(), &site);
  }
  for (const auto& service : ThirdPartyPool()) {
    const net::HostRecord* record = network.FindByHost(service.request_host);
    ASSERT_NE(record, nullptr) << service.request_host;
    auto* server =
        dynamic_cast<const ThirdPartyServer*>(network.ServerFor(*record));
    ASSERT_NE(server, nullptr) << service.request_host;
    EXPECT_EQ(server->service().request_host, service.request_host);
  }
}

}  // namespace
}  // namespace panoptes::web
