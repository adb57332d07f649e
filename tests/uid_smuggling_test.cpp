// UID-smuggling scenario layer tests: redirect-chain provenance
// through the flow store, the engine's redirect following, the sitegen
// tracking overlay, the origin/tracker bounce protocol, and the
// cross-flow identifier join.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/flow_index.h"
#include "analysis/uid_smuggling.h"
#include "browser/engine.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"
#include "net/fabric.h"
#include "proxy/flowstore.h"
#include "util/binio.h"
#include "web/origin_server.h"
#include "web/sitegen.h"
#include "web/world.h"

namespace panoptes {
namespace {

proxy::Flow ChainFlow(std::string_view url, uint64_t chain_id,
                      uint32_t hop) {
  proxy::Flow flow;
  flow.url = net::Url::MustParse(url);
  flow.request_bytes = 100;
  flow.response_bytes = 200;
  flow.chain_id = chain_id;
  flow.redirect_hop = hop;
  return flow;
}

TEST(FlowStoreRedirect, ChainTailsResolvePredecessors) {
  proxy::FlowStore store;
  store.SetProvenance(0x42);
  store.Add(ChainFlow("https://site.com/", 7, 0));
  store.Add(ChainFlow("https://t1.net/bounce", 7, 1));
  store.Add(ChainFlow("https://t2.org/bounce", 7, 2));
  store.Add(ChainFlow("https://other.com/", 0, 0));  // untracked

  const auto& flows = store.flows();
  EXPECT_EQ(flows[0].redirect_hop, 0u);
  EXPECT_EQ(flows[0].redirect_of, 0u);
  EXPECT_EQ(flows[1].redirect_hop, 1u);
  EXPECT_EQ(flows[1].redirect_of, flows[0].uid);
  EXPECT_EQ(flows[2].redirect_hop, 2u);
  EXPECT_EQ(flows[2].redirect_of, flows[1].uid);
  EXPECT_EQ(flows[3].redirect_of, 0u);

  // A hop with no recorded predecessor (fresh token) resolves to 0
  // instead of linking into a foreign chain.
  store.Add(ChainFlow("https://t3.io/bounce", 99, 1));
  EXPECT_EQ(store.flows()[4].redirect_of, 0u);
}

TEST(FlowStoreRedirect, V5RoundTripPreservesChainProvenance) {
  proxy::FlowStore store;
  store.SetProvenance(0x7);
  store.Add(ChainFlow("https://a.com/", 3, 0));
  store.Add(ChainFlow("https://b.net/hop", 3, 1));

  util::BinWriter out;
  store.SerializeTo(out);
  std::string bytes = out.Take();

  util::BinReader in(bytes);
  auto restored = proxy::FlowStore::Deserialize(in);
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->size(), 2u);
  EXPECT_EQ(restored->flows()[1].redirect_hop, 1u);
  EXPECT_EQ(restored->flows()[1].redirect_of, store.flows()[0].uid);

  for (size_t cut : {size_t{0}, size_t{5}, bytes.size() - 1}) {
    util::BinReader bad(std::string_view(bytes).substr(0, cut));
    EXPECT_EQ(proxy::FlowStore::Deserialize(bad), nullptr) << cut;
  }
}

TEST(FlowStoreRedirect, V4StreamStillReadable) {
  // A one-record v5 stream carries the redirect fields as its final 12
  // bytes (records are emitted last); dropping them and restamping the
  // tag byte yields exactly what the previous schema wrote.
  proxy::FlowStore store;
  store.SetProvenance(0x9);
  store.Add(ChainFlow("https://legacy.com/x?q=1", 0, 0));
  util::BinWriter out;
  store.SerializeTo(out);
  std::string bytes = out.Take();
  ASSERT_GT(bytes.size(), 13u);
  std::string v4 = bytes.substr(0, bytes.size() - 12);
  v4[0] = static_cast<char>(0xF4);

  util::BinReader in(v4);
  auto restored = proxy::FlowStore::Deserialize(in);
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->size(), 1u);
  const proxy::FlowView& back = restored->flows()[0];
  EXPECT_EQ(back.uid, store.flows()[0].uid);
  EXPECT_EQ(back.url.Serialize(), store.flows()[0].url.Serialize());
  EXPECT_EQ(back.redirect_of, 0u);
  EXPECT_EQ(back.redirect_hop, 0u);
}

TEST(FlowStoreRedirect, ChainTailsHandOffAcrossStores) {
  // The streaming buffer seals its live store into a spill segment and
  // reseeds a fresh one; chains spanning the boundary must resolve as
  // in the single unbounded store.
  proxy::FlowStore first;
  first.SetProvenance(0x5);
  first.Add(ChainFlow("https://site.com/", 11, 0));

  proxy::FlowStore second;
  second.SetProvenance(0x5);
  second.SetOrdinalBase(first.size());
  second.SetChainTails(first.TakeChainTails());
  second.Add(ChainFlow("https://t1.net/bounce", 11, 1));

  EXPECT_EQ(second.flows()[0].redirect_hop, 1u);
  EXPECT_EQ(second.flows()[0].redirect_of, first.flows()[0].uid);
}

core::FrameworkOptions ScenarioOptions(int popular = 4) {
  core::FrameworkOptions options;
  options.catalog.popular_count = popular;
  options.catalog.sensitive_count = 0;
  options.catalog.sitegen.bounce_fraction = 1.0;
  options.catalog.sitegen.decoration_fraction = 1.0;
  options.catalog.sitegen.max_bounce_hops = 2;
  return options;
}

TEST(EngineRedirect, FollowsBounceChainAndCommitsDecoratedLanding) {
  core::Framework framework(ScenarioOptions());
  const web::Site* bouncer = nullptr;
  for (const auto& site : framework.catalog().sites()) {
    if (site.bounce_tracking) {
      bouncer = &site;
      break;
    }
  }
  ASSERT_NE(bouncer, nullptr);
  ASSERT_FALSE(bouncer->bounce_hosts.empty());

  auto& runtime = framework.PrepareBrowser(*browser::FindSpec("Chrome"));
  auto outcome = runtime.Navigate(bouncer->landing_url);
  EXPECT_TRUE(outcome.page.ok);
  // origin 302 → one hop per tracker → decorated landing.
  EXPECT_EQ(outcome.page.redirect_hops,
            static_cast<int>(bouncer->bounce_hosts.size()) + 1);
  EXPECT_EQ(outcome.page.final_url.host(), bouncer->hostname);
  EXPECT_EQ(outcome.page.final_url.QueryParam("pan_uid").value_or(""),
            bouncer->smuggle_uid);
}

TEST(EngineRedirect, HopBoundFailsLoopingNavigation) {
  core::FrameworkOptions options;
  options.catalog.popular_count = 1;
  options.catalog.sensitive_count = 0;
  core::Framework framework(options);
  framework.network().Host(
      "loop.example", net::IpAddress(198, 51, 100, 200),
      std::make_shared<net::FunctionServer>(
          [](const net::HttpRequest&, const net::ConnectionMeta&) {
            return net::HttpResponse::Redirect("https://loop.example/again");
          }));

  auto& runtime = framework.PrepareBrowser(*browser::FindSpec("Chrome"));
  auto outcome =
      runtime.Navigate(net::Url::MustParse("https://loop.example/"));
  EXPECT_FALSE(outcome.page.ok);
  EXPECT_EQ(outcome.page.redirect_hops, browser::WebEngine::kMaxRedirectHops);
}

TEST(EngineRedirect, CrawlRecordsResolvableChainProvenance) {
  core::Framework framework(ScenarioOptions());
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);

  auto result =
      core::RunCrawl(framework, *browser::FindSpec("Chrome"), sites);
  for (const auto& visit : result.visits) EXPECT_TRUE(visit.ok);

  std::map<uint64_t, const proxy::FlowView*> by_uid;
  for (const auto& flow : result.engine_flows->flows()) {
    by_uid[flow.uid] = &flow;
  }
  size_t chained = 0;
  for (const auto& flow : result.engine_flows->flows()) {
    if (flow.redirect_hop == 0) {
      EXPECT_EQ(flow.redirect_of, 0u);
      continue;
    }
    ++chained;
    // Every hop's predecessor uid resolves within the same store, one
    // hop earlier in the chain.
    ASSERT_NE(flow.redirect_of, 0u);
    auto it = by_uid.find(flow.redirect_of);
    ASSERT_NE(it, by_uid.end());
    EXPECT_EQ(it->second->redirect_hop, flow.redirect_hop - 1);
  }
  EXPECT_GT(chained, 0u);
}

TEST(SiteGenScenario, OverlayIsDeterministicAndLeavesLegacyStreamAlone) {
  web::SiteGenOptions on;
  on.bounce_fraction = 1.0;
  on.decoration_fraction = 1.0;
  on.max_bounce_hops = 3;

  web::Site legacy = web::GenerateSite("shop.com", web::SiteCategory::kPopular,
                                       1, util::Rng(80));
  web::Site a = web::GenerateSite("shop.com", web::SiteCategory::kPopular, 1,
                                  util::Rng(80), on);
  web::Site b = web::GenerateSite("shop.com", web::SiteCategory::kPopular, 1,
                                  util::Rng(80), on);

  EXPECT_FALSE(legacy.bounce_tracking);
  EXPECT_FALSE(legacy.link_decoration);
  EXPECT_TRUE(legacy.smuggle_uid.empty());

  // Determinism: the overlay derives from the hostname, not call order.
  EXPECT_EQ(a.smuggle_uid, b.smuggle_uid);
  EXPECT_EQ(a.bounce_hosts, b.bounce_hosts);

  // The overlay must not re-deal the legacy generation: same structure,
  // same resource sample, with pan_uid the only URL difference.
  EXPECT_EQ(a.document_size, legacy.document_size);
  ASSERT_EQ(a.resources.size(), legacy.resources.size());
  for (size_t i = 0; i < a.resources.size(); ++i) {
    EXPECT_EQ(a.resources[i].url.host(), legacy.resources[i].url.host());
    EXPECT_EQ(a.resources[i].url.path(), legacy.resources[i].url.path());
    EXPECT_EQ(a.resources[i].third_party, legacy.resources[i].third_party);
    EXPECT_EQ(a.resources[i].ad_related, legacy.resources[i].ad_related);
    EXPECT_EQ(a.resources[i].body_size, legacy.resources[i].body_size);
  }

  ASSERT_TRUE(a.bounce_tracking);
  ASSERT_TRUE(a.link_decoration);
  EXPECT_FALSE(a.smuggle_uid.empty());
  EXPECT_GE(a.bounce_hosts.size(), 1u);
  EXPECT_LE(a.bounce_hosts.size(), 3u);
  // Decoration rides exactly the ad/analytics third-party embeds.
  for (size_t i = 0; i < a.resources.size(); ++i) {
    auto decorated = a.resources[i].url.QueryParam("pan_uid");
    if (a.resources[i].third_party && a.resources[i].ad_related) {
      EXPECT_EQ(decorated.value_or(""), a.smuggle_uid);
    } else {
      EXPECT_FALSE(decorated.has_value());
    }
  }
}

TEST(SiteGenScenario, PlainHttpRewritesFirstPartyUrls) {
  web::SiteGenOptions on;
  on.plain_http_fraction = 1.0;
  web::Site site = web::GenerateSite("news.com", web::SiteCategory::kPopular,
                                     1, util::Rng(81), on);
  ASSERT_TRUE(site.plain_http);
  EXPECT_EQ(site.landing_url.scheme(), "http");
  for (const auto& resource : site.resources) {
    if (!resource.third_party) EXPECT_EQ(resource.url.scheme(), "http");
  }
}

TEST(OriginServerBounce, LandingBouncesThroughTrackersThenServes) {
  web::SiteGenOptions on;
  on.bounce_fraction = 1.0;
  on.max_bounce_hops = 2;
  web::Site site = web::GenerateSite("shop.com", web::SiteCategory::kPopular,
                                     1, util::Rng(80), on);
  ASSERT_TRUE(site.bounce_tracking);
  web::OriginServer origin(web::World::FromSites({site}), 0);
  net::ConnectionMeta meta;

  net::HttpRequest request;
  request.url = site.landing_url;
  auto bounce = origin.Handle(request, meta);
  ASSERT_EQ(bounce.status, 302);
  auto location = bounce.headers.Get("Location");
  ASSERT_TRUE(location.has_value());
  net::Url hop = net::Url::MustParse(std::string(*location));
  EXPECT_EQ(hop.host(), site.bounce_hosts.front());
  EXPECT_EQ(hop.path(), "/bounce");
  EXPECT_EQ(hop.QueryParam("uid").value_or(""), site.smuggle_uid);

  // Walk the tracker chain: each hop sets its own cookie and 302s on;
  // the last hop lands on the decorated destination.
  for (size_t i = 0; i < site.bounce_hosts.size(); ++i) {
    web::ThirdPartyService service;
    service.request_host = site.bounce_hosts[i];
    service.kind = web::ThirdPartyKind::kAnalytics;
    web::ThirdPartyServer tracker(service);
    net::HttpRequest hop_request;
    hop_request.url = hop;
    auto response = tracker.Handle(hop_request, meta);
    ASSERT_EQ(response.status, 302) << i;
    EXPECT_EQ(response.headers.Get("Set-Cookie").value_or(""),
              "tuid=" + site.smuggle_uid + "; Path=/; Secure");
    auto next = response.headers.Get("Location");
    ASSERT_TRUE(next.has_value());
    hop = net::Url::MustParse(std::string(*next));
  }
  EXPECT_EQ(hop.host(), site.hostname);
  EXPECT_EQ(hop.QueryParam("pan_uid").value_or(""), site.smuggle_uid);

  // The decorated landing request breaks the loop and serves the page.
  net::HttpRequest landing;
  landing.url = hop;
  auto served = origin.Handle(landing, meta);
  EXPECT_EQ(served.status, 200);
}

TEST(OriginServerBounce, SecureCookieOnlyOnHttpsSites) {
  util::Rng rng(80);
  web::Site https_site =
      web::GenerateSite("shop.com", web::SiteCategory::kPopular, 1, rng);
  web::OriginServer https_server(web::World::FromSites({https_site}), 0);
  net::ConnectionMeta meta;
  net::HttpRequest request;
  request.url = https_site.landing_url;
  auto https_cookie =
      https_server.Handle(request, meta).headers.Get("Set-Cookie");
  ASSERT_TRUE(https_cookie.has_value());
  EXPECT_NE(https_cookie->find("; Secure"), std::string::npos);

  // A browser rejects a Secure cookie arriving over plain http, so the
  // http origin must not send one.
  web::SiteGenOptions on;
  on.plain_http_fraction = 1.0;
  web::Site http_site = web::GenerateSite(
      "news.com", web::SiteCategory::kPopular, 1, util::Rng(81), on);
  ASSERT_TRUE(http_site.plain_http);
  web::OriginServer http_server(web::World::FromSites({http_site}), 0);
  net::HttpRequest http_request;
  http_request.url = http_site.landing_url;
  auto http_cookie =
      http_server.Handle(http_request, meta).headers.Get("Set-Cookie");
  ASSERT_TRUE(http_cookie.has_value());
  EXPECT_EQ(http_cookie->find("Secure"), std::string::npos);
}

// --- the analyzer ---

proxy::Flow ParamFlow(std::string_view url) {
  proxy::Flow flow;
  flow.url = net::Url::MustParse(url);
  flow.request_bytes = 80;
  flow.response_bytes = 120;
  return flow;
}

struct JoinFixture {
  proxy::FlowStore engine;
  proxy::FlowStore native;

  analysis::UidSmugglingReport Analyze() {
    auto engine_index = analysis::FlowIndex::Build(engine);
    auto native_index = analysis::FlowIndex::Build(native);
    return analysis::AnalyzeUidSmuggling(engine, engine_index, native,
                                         native_index);
  }
};

TEST(UidSmuggling, ExactJoinRequiresTwoRegistrableDomains) {
  JoinFixture fx;
  fx.engine.SetProvenance(0x1);
  fx.native.SetProvenance(0x2);
  // Same token at two registrable domains → confirmed.
  fx.engine.Add(ParamFlow("https://ads.alpha.com/pixel?uid=abc123def456"));
  fx.engine.Add(ParamFlow("https://t.beta.net/sync?puid=abc123def456"));
  // Same token, same domain (two subdomains) → not smuggling.
  fx.engine.Add(ParamFlow("https://a.gamma.org/x?v=zz99zz88zz77"));
  fx.engine.Add(ParamFlow("https://b.gamma.org/y?v=zz99zz88zz77"));
  // Not token-like: too short / no letters.
  fx.engine.Add(ParamFlow("https://ads.alpha.com/p?sid=ab12"));
  fx.engine.Add(ParamFlow("https://t.beta.net/p?sid=123456789012"));

  auto report = fx.Analyze();
  ASSERT_EQ(report.findings.size(), 1u);
  const auto& finding = report.findings[0];
  EXPECT_EQ(finding.value, "abc123def456");
  EXPECT_EQ(finding.domains, 2u);
  EXPECT_EQ(finding.engine_sightings, 2u);
  EXPECT_EQ(finding.native_sightings, 0u);
  ASSERT_EQ(finding.sightings.size(), 2u);
  EXPECT_EQ(finding.sightings[0].key, "uid");
  EXPECT_EQ(finding.sightings[1].key, "puid");
  // Provenance: sighting uids resolve to stored flows.
  for (const auto& sighting : finding.sightings) {
    bool found = false;
    for (const auto& flow : fx.engine.flows()) {
      if (flow.uid == sighting.flow_uid) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(UidSmuggling, ContainmentWideningSplitsCarriers) {
  JoinFixture fx;
  fx.engine.SetProvenance(0x1);
  fx.native.SetProvenance(0x2);
  fx.engine.Add(ParamFlow("https://ads.alpha.com/pixel?uid=abc123def456"));
  fx.engine.Add(ParamFlow("https://t.beta.net/sync?uid=abc123def456"));
  // A native beacon quoting the decorated URL: the value rides inside
  // a larger parameter — containment, not equality.
  fx.native.Add(ParamFlow(
      "https://report.vendor.com/pv?url=visited_abc123def456_page"));

  auto report = fx.Analyze();
  ASSERT_EQ(report.findings.size(), 1u);
  const auto& finding = report.findings[0];
  EXPECT_EQ(finding.engine_sightings, 2u);
  EXPECT_EQ(finding.native_sightings, 1u);
  EXPECT_EQ(finding.embedded_sightings, 1u);
  const auto& embedded = finding.sightings.back();
  EXPECT_TRUE(embedded.embedded);
  EXPECT_EQ(embedded.carrier, analysis::UidCarrier::kNative);
  EXPECT_EQ(embedded.host, "report.vendor.com");
}

TEST(UidSmuggling, ChainWalkFindsTheHeadFlow) {
  JoinFixture fx;
  fx.engine.SetProvenance(0x1);
  fx.native.SetProvenance(0x2);
  fx.engine.Add(ChainFlow("https://shop.com/", 4, 0));
  fx.engine.Add(
      ChainFlow("https://t1.net/bounce?uid=abc123def456", 4, 1));
  fx.engine.Add(
      ChainFlow("https://t2.org/bounce?uid=abc123def456", 4, 2));

  auto report = fx.Analyze();
  EXPECT_EQ(report.flows_with_chains, 2u);
  ASSERT_EQ(report.findings.size(), 1u);
  const auto& finding = report.findings[0];
  EXPECT_EQ(finding.chained_sightings, 2u);
  EXPECT_EQ(finding.max_chain_hops, 2u);
  const uint64_t head = fx.engine.flows()[0].uid;
  for (const auto& sighting : finding.sightings) {
    EXPECT_EQ(sighting.chain_head, head);
    EXPECT_GT(sighting.redirect_hop, 0u);
    EXPECT_NE(sighting.redirect_of, 0u);
  }
}

TEST(UidSmuggling, MismatchedIndexSideIsTreatedEmpty) {
  JoinFixture fx;
  fx.engine.Add(ParamFlow("https://ads.alpha.com/pixel?uid=abc123def456"));
  fx.engine.Add(ParamFlow("https://t.beta.net/sync?uid=abc123def456"));
  auto engine_index = analysis::FlowIndex::Build(fx.engine);
  // Stale native index: built before the store grew.
  auto native_index = analysis::FlowIndex::Build(fx.native);
  fx.native.Add(ParamFlow("https://x.late.com/p?uid=abc123def456"));

  auto report = analysis::AnalyzeUidSmuggling(fx.engine, engine_index,
                                              fx.native, native_index);
  ASSERT_EQ(report.findings.size(), 1u);
  // The stale side contributed nothing rather than misattributing.
  EXPECT_EQ(report.findings[0].native_sightings, 0u);
}

TEST(UidSmuggling, EndToEndScenarioCrawlProducesChainedFindings) {
  core::Framework framework(ScenarioOptions(6));
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);

  core::CrawlOptions crawl_options;
  crawl_options.compact_engine_store = false;
  auto result = core::RunCrawl(framework, *browser::FindSpec("Yandex"),
                               sites, crawl_options);
  auto report = analysis::AnalyzeUidSmuggling(
      *result.engine_flows, *result.engine_index, *result.native_flows,
      *result.native_index);

  ASSERT_FALSE(report.findings.empty());
  EXPECT_GT(report.flows_with_chains, 0u);
  bool any_chained = false;
  bool any_native = false;
  for (const auto& finding : report.findings) {
    EXPECT_GE(finding.domains, 2u);
    if (finding.chained_sightings > 0) any_chained = true;
    if (finding.native_sightings > 0) any_native = true;
    for (const auto& sighting : finding.sightings) {
      // Every sighting must resolve to a stored flow.
      const proxy::FlowStore& store =
          sighting.carrier == analysis::UidCarrier::kEngine
              ? *result.engine_flows
              : *result.native_flows;
      bool found = false;
      for (const auto& flow : store.flows()) {
        if (flow.uid == sighting.flow_uid) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
  // The bounce chains put the uid on redirect hops, and Yandex's
  // native reporting re-ships the decorated URL.
  EXPECT_TRUE(any_chained);
  EXPECT_TRUE(any_native);
}

}  // namespace
}  // namespace panoptes
