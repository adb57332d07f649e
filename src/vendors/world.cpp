#include "vendors/world.h"

namespace panoptes::vendors {

namespace {

// Every generic vendor backend. The specialised ones (Yandex sba/api,
// oleads, DoH) are planned separately below.
constexpr VendorHostSpec kTelemetryHosts[] = {
    // Google / Chrome.
    {"update.googleapis.com", "US", true},
    {"safebrowsing.googleapis.com", "US", true},
    {"clients4.google.com", "US", true},
    // Microsoft / Edge — §3.5 names msn, microsoft.com, bing.com plus
    // adjust/outbrain/zemanta/scorecardresearch (ad-tech pool hosts).
    {"config.edge.skype.com", "US"},
    {"vortex.data.microsoft.com", "US"},
    {"www.msn.com", "US"},
    {"assets.msn.com", "US"},
    {"edge.microsoft.com", "US"},
    // Opera (Norwegian vendor; oleads/sitecheck installed separately).
    {"ofa.opera.com", "NO"},
    {"news.opera-api.com", "NO"},
    {"autoupdate.geo.opera.com", "NO"},
    // Vivaldi.
    {"update.vivaldi.com", "NO"},
    {"downloads.vivaldi.com", "NO"},
    // Yandex update/ads backends (sba/api installed separately).
    {"browser-updates.yandex.net", "RU"},
    {"mobile.yandexadexchange.net", "RU"},
    // Brave.
    {"variations.brave.com", "US"},
    {"go-updater.brave.com", "US"},
    {"static.brave.com", "US"},
    // Samsung Internet.
    {"api.internet.apps.samsung.com", "KR"},
    {"config.samsungbrowser.com", "KR"},
    // DuckDuckGo.
    {"improving.duckduckgo.com", "US"},
    {"staticcdn.duckduckgo.com", "US"},
    // Dolphin (§3.5: 46% of idle natives go to Facebook Graph).
    {"api.dolphin-browser.com", "US"},
    {"cdn.dolphin-browser.com", "US"},
    {"graph.facebook.com", "US", true},
    // Naver Whale.
    {"api-whale.naver.com", "KR"},
    {"update.whale.naver.net", "KR"},
    // Xiaomi Mint.
    {"api.browser.mi.com", "SG"},
    {"data.mistat.xiaomi.com", "SG"},
    // Kiwi.
    {"update.kiwibrowser.com", "US"},
    // CocCoc.
    {"browser.coccoc.com", "VN"},
    {"log.coccoc.com", "VN"},
    {"spell.itim.vn", "VN"},
    // QQ (full-URL phone home handled by the generic server: the leak
    // is in what the browser sends, not in how the server replies).
    {"wup.browser.qq.com", "CN"},
    {"mtt.browser.qq.com", "CN"},
    {"log.tbs.qq.com", "CN"},
    // UC International (hosted in Canada per the paper's geolocation).
    {"u.ucweb.com", "CA"},
    {"api.ucweb.com", "CA"},
    {"puds.ucweb.com", "CA"},
    // Additional Google infrastructure Chromium forks touch natively.
    {"accounts.google.com", "US", true},
    {"www.google.com", "US", true},
    {"www.gstatic.com", "US", true},
    {"t0.gstatic.com", "US", true},
    // Kiwi's own search service.
    {"kiwisearchservices.com", "US"},
    // Yandex start-page asset services.
    {"resize.yandex.net", "RU"},
    {"favicon.yandex.net", "RU"},
    // Opera's wider first-party estate (start page, crash reports,
    // feature flags, push, thumbnails).
    {"static.opera.com", "NO"},
    {"crashstats.opera.com", "NO"},
    {"exchange.opera.com", "NO"},
    {"features.opera.com", "NO"},
    {"cdn.opera.com", "NO"},
    {"sdx.opera.com", "NO"},
    {"notifications.opera.com", "NO"},
    {"thumbnails.opera.com", "NO"},
    {"push.opera.com", "NO"},
    // Vivaldi sync / URL reputation.
    {"sync.vivaldi.com", "NO"},
    {"mimir2.vivaldi.com", "NO"},
    {"urlcheck.vivaldi.com", "NO"},
    // Whale start-page services.
    {"cast.whale.naver.com", "KR"},
    {"store.whale.naver.com", "KR"},
};

}  // namespace

std::span<const VendorHostSpec> TelemetryHosts() { return kTelemetryHosts; }

VendorPlan PlanVendors(net::HostTable& table, GeoPlan& geo) {
  VendorPlan plan;
  auto add = [&](const char* hostname, const char* country, bool h3) {
    return table.Add(hostname, geo.Allocator(country).Next(), h3).slot;
  };
  plan.telemetry.reserve(TelemetryHosts().size());
  for (const auto& spec : TelemetryHosts()) {
    plan.telemetry.push_back(add(spec.hostname, spec.country, spec.h3));
  }
  plan.sba_yandex = add("sba.yandex.net", "RU", false);
  plan.yandex_api = add("api.browser.yandex.ru", "RU", false);
  plan.oleads = add("s-odx.oleads.com", "NO", false);
  // Americas CDN front of the same ad SDK backend: device cohorts west
  // of UTC fetch ads here (browser/profiles.cpp picks the endpoint by
  // device region). Same handler — only the hostname and geo differ.
  plan.oleads_amer = add("s-odx-amer.oleads.com", "US", false);
  plan.bing = add("www.bing.com", "US", /*h3=*/true);
  plan.sitecheck = add("sitecheck2.opera.com", "NO", false);
  plan.cloudflare_doh = add("cloudflare-dns.com", "US-ANYCAST-CF", true);
  plan.google_doh = add("dns.google", "US-ANYCAST-GOOG", true);
  return plan;
}

VendorWorld BindVendors(const VendorPlan& plan, net::Network& network) {
  VendorWorld world;
  world.telemetry.reserve(plan.telemetry.size());
  for (size_t i = 0; i < plan.telemetry.size(); ++i) {
    auto server =
        std::make_shared<TelemetryServer>(TelemetryHosts()[i].hostname);
    network.Bind(plan.telemetry[i], server);
    world.telemetry.push_back(std::move(server));
  }
  world.sba_yandex = std::make_shared<SbaYandexServer>();
  network.Bind(plan.sba_yandex, world.sba_yandex);
  world.yandex_api = std::make_shared<YandexApiServer>();
  network.Bind(plan.yandex_api, world.yandex_api);
  world.oleads = std::make_shared<OleadsServer>();
  network.Bind(plan.oleads, world.oleads);
  network.Bind(plan.oleads_amer, world.oleads);
  world.bing = std::make_shared<BingApiServer>();
  network.Bind(plan.bing, world.bing);
  world.sitecheck = std::make_shared<OperaSitecheckServer>();
  network.Bind(plan.sitecheck, world.sitecheck);
  world.cloudflare_doh = std::make_shared<DohServer>(&network);
  network.Bind(plan.cloudflare_doh, world.cloudflare_doh);
  world.google_doh = std::make_shared<DohServer>(&network);
  network.Bind(plan.google_doh, world.google_doh);
  return world;
}

}  // namespace panoptes::vendors
