// Failure injection: the measurement stack must degrade cleanly when
// DNS breaks, servers error out, the MITM CA is absent, or pinning
// removes traffic — and the analysis must not fabricate findings from
// broken runs.
#include <gtest/gtest.h>

#include "analysis/flow_index.h"
#include "analysis/historyleak.h"
#include "browser/profiles.h"
#include "chaos/injector.h"
#include "chaos/profile.h"
#include "core/campaign.h"
#include "core/framework.h"

namespace panoptes {
namespace {

core::FrameworkOptions TinyOptions() {
  core::FrameworkOptions options;
  options.catalog.popular_count = 4;
  options.catalog.sensitive_count = 0;
  return options;
}

TEST(Failure, DnsOutageForASiteDoesNotAbortTheCrawl) {
  core::Framework framework(TinyOptions());
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);

  framework.network().zone().SetFailing(sites[1]->hostname, true);

  auto result =
      core::RunCrawl(framework, *browser::FindSpec("DuckDuckGo"), sites);
  ASSERT_EQ(result.visits.size(), 4u);
  EXPECT_TRUE(result.visits[0].ok);
  EXPECT_FALSE(result.visits[1].ok);  // the broken one
  EXPECT_TRUE(result.visits[2].ok);
  EXPECT_GT(result.stack_stats.dns_failures, 0u);
}

TEST(Failure, WithoutMitmCaInterceptionCapturesNothing) {
  core::FrameworkOptions options = TinyOptions();
  options.install_mitm_ca = false;  // user never installed the CA
  core::Framework framework(options);
  std::vector<const web::Site*> sites = {
      &framework.catalog().sites().front()};

  auto result =
      core::RunCrawl(framework, *browser::FindSpec("Chrome"), sites);
  // Every diverted handshake fails; the proxy records no flows.
  EXPECT_EQ(result.engine_flows->size(), 0u);
  EXPECT_EQ(result.native_flows->size(), 0u);
  EXPECT_GT(framework.netstack().stats().tls_failures, 0u);
  EXPECT_FALSE(result.visits.front().ok);
}

TEST(Failure, VendorOutageDoesNotPoisonTheSplit) {
  core::Framework framework(TinyOptions());
  // Kill Yandex's sba endpoint at the DNS level.
  framework.network().zone().SetFailing("sba.yandex.net", true);
  std::vector<const web::Site*> sites = {
      &framework.catalog().sites().front()};

  auto result =
      core::RunCrawl(framework, *browser::FindSpec("Yandex"), sites);
  // The page still loads; the api.browser track requests still flow.
  EXPECT_TRUE(result.visits.front().ok);
  EXPECT_TRUE(result.native_flows->ToHost("sba.yandex.net").empty());
  EXPECT_FALSE(
      result.native_flows->ToHost("api.browser.yandex.ru").empty());
}

TEST(Failure, EmptySiteListYieldsEmptyResult) {
  core::Framework framework(TinyOptions());
  auto result = core::RunCrawl(framework, *browser::FindSpec("Brave"), {});
  EXPECT_TRUE(result.visits.empty());
  EXPECT_EQ(result.engine_flows->size(), 0u);
  // Startup natives still happen (the browser launched).
  EXPECT_GT(result.native_flows->size(), 0u);
  EXPECT_NEAR(result.NativeRatio(), 1.0, 1e-12);
}

TEST(Failure, LeakDetectorHandlesEmptyInputs) {
  analysis::HistoryLeakDetector empty_detector({});
  proxy::FlowStore store;
  const auto index = analysis::FlowIndex::Build(store);
  EXPECT_TRUE(empty_detector.Scan(store, index).empty());

  analysis::HistoryLeakDetector detector(
      {net::Url::MustParse("https://a.com/")});
  EXPECT_TRUE(detector.Scan(store, index).empty());
}

TEST(Failure, CrawlResultRatioWithNoTraffic) {
  core::CrawlResult result;
  result.engine_flows = std::make_unique<proxy::FlowStore>();
  result.native_flows = std::make_unique<proxy::FlowStore>();
  result.engine_index = std::make_unique<analysis::FlowIndex>(
      analysis::FlowIndex::Build(*result.engine_flows));
  result.native_index = std::make_unique<analysis::FlowIndex>(
      analysis::FlowIndex::Build(*result.native_flows));
  EXPECT_EQ(result.NativeRatio(), 0.0);
}

TEST(Failure, IdleShareOnEmptyStore) {
  core::IdleResult result;
  result.native_flows = std::make_unique<proxy::FlowStore>();
  result.native_index = std::make_unique<analysis::FlowIndex>(
      analysis::FlowIndex::Build(*result.native_flows));
  EXPECT_EQ(result.ShareToHost("graph.facebook.com"), 0.0);
}

TEST(Failure, ChaosIsOffByDefault) {
  core::Framework framework(TinyOptions());
  // No profile configured ⇒ no injector is even constructed; the whole
  // chaos fabric is dormant on the legacy path.
  EXPECT_EQ(framework.chaos(), nullptr);
}

TEST(Failure, DnsStormDegradesButNeverFabricates) {
  core::FrameworkOptions options = TinyOptions();
  options.chaos = *chaos::FaultProfile::Named("dns-storm");
  core::Framework framework(options);
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);

  auto result =
      core::RunCrawl(framework, *browser::FindSpec("DuckDuckGo"), sites);
  ASSERT_EQ(result.visits.size(), 4u);
  // The storm hit something on this seed...
  ASSERT_NE(framework.chaos(), nullptr);
  EXPECT_GT(framework.chaos()->CountFor(chaos::FaultKind::kDnsFailure), 0u);
  EXPECT_GT(result.stack_stats.dns_failures, 0u);
  // ...every failed visit carries a cause for the manifest...
  for (const auto& visit : result.visits) {
    if (!visit.ok) {
      EXPECT_FALSE(visit.fault_cause.empty());
    }
  }
  // ...and nothing synthesized leaked into the findings stores.
  for (const auto* store :
       {result.engine_flows.get(), result.native_flows.get()}) {
    for (const auto& flow : store->flows()) {
      EXPECT_FALSE(flow.fault_injected);
    }
  }
}

TEST(Failure, PreparingSameBrowserTwiceIsClean) {
  core::Framework framework(TinyOptions());
  const auto* spec = browser::FindSpec("Mint");
  auto& first = framework.PrepareBrowser(*spec);
  int uid_first = first.context().app().uid;
  auto& second = framework.PrepareBrowser(*spec);
  EXPECT_EQ(second.context().app().uid, uid_first);  // UID stable
  // Exactly one divert rule for it (teardown ran in between).
  size_t divert_rules = 0;
  for (const auto& rule : framework.device().iptables().rules()) {
    if (rule.action == device::RuleAction::kDivert) ++divert_rules;
  }
  EXPECT_EQ(divert_rules, 1u);
}

}  // namespace
}  // namespace panoptes
