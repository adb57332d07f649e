#include "analysis/referer.h"

#include <gtest/gtest.h>

#include "analysis/flow_index.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"
#include "oracle/store_scans.h"

namespace panoptes::analysis {
namespace {

proxy::Flow EngineFlow(std::string_view url, std::string_view referer) {
  proxy::Flow flow;
  flow.url = net::Url::MustParse(url);
  if (!referer.empty()) flow.request_headers.Add("Referer", referer);
  return flow;
}

TEST(RefererLeakage, ClassifiesCrossSiteOnly) {
  proxy::FlowStore store;
  // Cross-site with referer: leaks.
  store.Add(EngineFlow("https://ad.doubleclick.net/bid",
                       "https://shop.example.com/"));
  store.Add(EngineFlow("https://ad.doubleclick.net/bid",
                       "https://news.example.org/"));
  // Same-site subresource: not a leak.
  store.Add(EngineFlow("https://static.shop.example.com/x.js",
                       "https://shop.example.com/"));
  // No referer at all: nothing to leak.
  store.Add(EngineFlow("https://cdn.jsdelivr.net/lib.js", ""));
  // Malformed referer: ignored.
  store.Add(EngineFlow("https://cdn.jsdelivr.net/lib.js", "not a url"));

  auto report = AnalyzeRefererLeakage(store, FlowIndex::Build(store));
  EXPECT_EQ(report.engine_requests, 5u);
  EXPECT_EQ(report.leaking_requests, 2u);
  ASSERT_EQ(report.leaks.size(), 1u);
  EXPECT_EQ(report.leaks[0].third_party_host, "ad.doubleclick.net");
  EXPECT_EQ(report.leaks[0].requests, 2u);
  EXPECT_EQ(report.leaks[0].distinct_sites, 2u);
  EXPECT_NEAR(report.LeakFraction(), 0.4, 1e-12);
}

// The indexed analyzer must classify exactly like the store-scanning
// reference on the hosts where PSL helpers are easiest to get wrong: IP
// literals, bare public-suffix hosts, trailing-dot spellings, single
// labels and unknown TLDs. Differential: run both on the same store and
// compare the complete reports.
TEST(RefererLeakage, StoreScanAndIndexedPathsAgreeOnEdgeHosts) {
  proxy::FlowStore store;
  // IP-literal destination, same and different referring IPs.
  store.Add(EngineFlow("https://10.0.0.1/pixel", "https://10.0.0.1/"));
  store.Add(EngineFlow("https://10.0.0.1/pixel", "https://10.0.0.2/"));
  store.Add(EngineFlow("https://10.0.0.1/pixel", "https://site.com/"));
  // Bare public-suffix hosts on both sides.
  store.Add(EngineFlow("https://com/x", "https://com/"));
  store.Add(EngineFlow("https://com/x", "https://a.com/"));
  store.Add(EngineFlow("https://a.com/x", "https://com/"));
  // Trailing-dot (FQDN) spellings against the dotless twin.
  store.Add(EngineFlow("https://tracker.net./t", "https://site.net/"));
  store.Add(EngineFlow("https://site.net./t", "https://www.site.net/"));
  // Single labels and unknown TLDs.
  store.Add(EngineFlow("https://localhost/x", "https://localhost/"));
  store.Add(EngineFlow("https://localhost/x", "https://dev.localhost/"));
  store.Add(EngineFlow("https://a.internal/x", "https://b.internal/"));
  store.Add(EngineFlow("https://x.a.internal/x", "https://y.a.internal/"));
  // Ordinary cross-site traffic so the leak list is non-trivial.
  store.Add(EngineFlow("https://ads.example.net/bid", "https://shop.com/"));
  store.Add(EngineFlow("https://ads.example.net/bid", "https://news.org/"));

  auto legacy = oracle::AnalyzeRefererLeakage(store);
  FlowIndex index = FlowIndex::Build(store);
  auto indexed = AnalyzeRefererLeakage(store, index);

  EXPECT_EQ(legacy.engine_requests, indexed.engine_requests);
  EXPECT_EQ(legacy.leaking_requests, indexed.leaking_requests);
  ASSERT_EQ(legacy.leaks.size(), indexed.leaks.size());
  for (size_t i = 0; i < legacy.leaks.size(); ++i) {
    EXPECT_EQ(legacy.leaks[i].third_party_host,
              indexed.leaks[i].third_party_host) << i;
    EXPECT_EQ(legacy.leaks[i].requests, indexed.leaks[i].requests) << i;
    EXPECT_EQ(legacy.leaks[i].distinct_sites, indexed.leaks[i].distinct_sites)
        << i;
  }
  // Spot-pin the semantics both paths must share: same-registrable-
  // domain pairs (IP==IP, suffix==suffix, FQDN dot stripped by the PSL
  // walk) are not leaks.
  EXPECT_EQ(legacy.engine_requests, 14u);
  EXPECT_EQ(legacy.leaking_requests, 9u);
}

TEST(RefererLeakage, EmptyStore) {
  proxy::FlowStore store;
  auto report = AnalyzeRefererLeakage(store, FlowIndex::Build(store));
  EXPECT_EQ(report.LeakFraction(), 0);
  EXPECT_TRUE(report.leaks.empty());
}

TEST(RefererLeakage, RealCrawlShowsTheEngineChannel) {
  core::FrameworkOptions options;
  options.catalog.popular_count = 6;
  options.catalog.sensitive_count = 0;
  core::Framework framework(options);

  // Need a full (non-compact) engine store to keep headers.
  proxy::FlowStore engine_store, native_store;
  auto& runtime =
      framework.PrepareBrowser(*browser::FindSpec("Chrome"));
  framework.taint_addon().SetStores(&engine_store, &native_store);
  for (const auto& site : framework.catalog().sites()) {
    runtime.Navigate(site.landing_url);
  }
  framework.taint_addon().SetStores(nullptr, nullptr);
  framework.TeardownBrowser();

  auto report =
      AnalyzeRefererLeakage(engine_store, FlowIndex::Build(engine_store));
  // Generated sites embed third parties, and every subresource fetch
  // carries a Referer — the classic engine-side channel is visible.
  EXPECT_GT(report.leaking_requests, 0u);
  EXPECT_FALSE(report.leaks.empty());
  // The usual suspects learned about multiple sites.
  bool multi_site_tracker = false;
  for (const auto& leak : report.leaks) {
    if (leak.distinct_sites >= 2) multi_site_tracker = true;
  }
  EXPECT_TRUE(multi_site_tracker);
}

}  // namespace
}  // namespace panoptes::analysis
