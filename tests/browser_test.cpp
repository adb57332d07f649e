// Browser-layer tests: interceptors, HTML resource extraction, engine
// behaviour (cookies, adblock, taint), specs and runtime.
#include <gtest/gtest.h>

#include "browser/engine.h"
#include "browser/interceptor.h"
#include "browser/profiles.h"
#include "browser/runtime.h"
#include "core/campaign.h"
#include "core/framework.h"

namespace panoptes::browser {
namespace {

TEST(Interceptor, CdpAddsTaintHeader) {
  CdpInterceptor interceptor(1);
  net::HttpRequest request;
  request.url = net::Url::MustParse("https://site.com/");
  interceptor.InterceptEngineRequest(request);
  auto taint = request.headers.Get(kTaintHeader);
  ASSERT_TRUE(taint.has_value());
  EXPECT_EQ(taint->rfind("cdp-", 0), 0u);
  EXPECT_EQ(interceptor.intercepted_count(), 1u);
}

TEST(Interceptor, FridaAddsTaintHeader) {
  FridaWebViewHook hook(2);
  net::HttpRequest request;
  request.url = net::Url::MustParse("https://site.com/");
  hook.InterceptEngineRequest(request);
  EXPECT_EQ(hook.Describe(), "frida-webview");
  EXPECT_EQ(request.headers.Get(kTaintHeader)->rfind("frida-", 0), 0u);
}

TEST(Interceptor, FactoryMatchesInstrumentation) {
  auto cdp = MakeInterceptor(static_cast<int>(Instrumentation::kCdp), 3);
  auto frida = MakeInterceptor(
      static_cast<int>(Instrumentation::kFridaWebViewHook), 3);
  EXPECT_EQ(cdp->Describe(), "cdp");
  EXPECT_EQ(frida->Describe(), "frida-webview");
}

TEST(Engine, ExtractResourceUrls) {
  std::string html = R"(
    <script src="https://a.com/x.js"></script>
    <link rel="stylesheet" href="https://a.com/y.css">
    <img src="https://cdn.b.net/z.png">
    <script data-fetch="https://api.c.io/data.json"></script>
    <img src="/relative/skipped.png">
    <a href="mailto:someone@example.com">mail</a>
    <img src="https://broken">
  )";
  auto urls = ExtractResourceUrls(html);
  ASSERT_EQ(urls.size(), 5u);  // 4 valid + https://broken parses as host
  EXPECT_EQ(urls[0].Serialize(), "https://a.com/x.js");
}

TEST(Engine, ExtractHandlesEmptyAndTruncated) {
  EXPECT_TRUE(ExtractResourceUrls("").empty());
  EXPECT_TRUE(ExtractResourceUrls("<img src=\"unterminated").empty());
}

TEST(IdleCadenceModel, Shapes) {
  IdleCadence two_phase{IdleShape::kTwoPhase, 20, 18, 3, 0, 0};
  double at_1m = two_phase.ExpectedAt(util::Duration::Minutes(1));
  double at_10m = two_phase.ExpectedAt(util::Duration::Minutes(10));
  // Burst nearly complete after a minute; plateau afterwards.
  EXPECT_GT(at_1m, 20 * 0.9);
  EXPECT_NEAR(at_10m - at_1m, 9 * 3, 1.5);

  IdleCadence linear{IdleShape::kLinear, 0, 0, 0, 10, 0};
  EXPECT_NEAR(linear.ExpectedAt(util::Duration::Minutes(3)), 30, 1e-9);

  IdleCadence quiet{IdleShape::kQuiet, 0, 0, 0, 0, 3};
  EXPECT_LE(quiet.ExpectedAt(util::Duration::Minutes(10)), 3.0);
  EXPECT_GT(quiet.ExpectedAt(util::Duration::Minutes(2)), 2.5);
}

TEST(Profiles, AllFifteenBrowsersPresent) {
  const auto& specs = AllBrowserSpecs();
  ASSERT_EQ(specs.size(), 15u);
  // Table 1 identities.
  EXPECT_EQ(specs[0].name, "Chrome");
  EXPECT_EQ(specs[0].version, "113.0.5672.77");
  EXPECT_EQ(FindSpec("Yandex")->version, "23.3.7.24");
  EXPECT_EQ(FindSpec("UC International")->version, "13.4.2.1307");
  EXPECT_EQ(FindSpec("nonexistent"), nullptr);
}

TEST(Profiles, MethodologyFacts) {
  // UC is the only Frida-instrumented browser (no CDP support).
  for (const auto& spec : AllBrowserSpecs()) {
    if (spec.name == "UC International") {
      EXPECT_EQ(spec.instrumentation, Instrumentation::kFridaWebViewHook);
    } else {
      EXPECT_EQ(spec.instrumentation, Instrumentation::kCdp);
    }
  }
  // Footnote 5: Yandex and QQ lack incognito.
  EXPECT_FALSE(FindSpec("Yandex")->has_incognito);
  EXPECT_FALSE(FindSpec("QQ")->has_incognito);
  EXPECT_TRUE(FindSpec("Edge")->has_incognito);
  // DoH split 8/7.
  int doh = 0;
  for (const auto& spec : AllBrowserSpecs()) {
    if (spec.doh != DohProvider::kNone) ++doh;
  }
  EXPECT_EQ(doh, 8);
  // History-leak mechanisms.
  EXPECT_EQ(FindSpec("Yandex")->history_leak, HistoryLeak::kFullUrl);
  EXPECT_EQ(FindSpec("QQ")->history_leak, HistoryLeak::kFullUrl);
  EXPECT_EQ(FindSpec("UC International")->history_leak,
            HistoryLeak::kJsInjection);
  EXPECT_EQ(FindSpec("Edge")->history_leak, HistoryLeak::kHostOnly);
  EXPECT_EQ(FindSpec("Opera")->history_leak, HistoryLeak::kHostOnly);
  EXPECT_EQ(FindSpec("Chrome")->history_leak, HistoryLeak::kNone);
  EXPECT_TRUE(FindSpec("Yandex")->persistent_identifier);
  // CocCoc blocks ads in-engine (§3.1).
  EXPECT_TRUE(FindSpec("CocCoc")->engine_adblock);
  EXPECT_FALSE(FindSpec("Chrome")->engine_adblock);
}

// ---------------------------------------------------------------------------
// Runtime + engine through a small framework
// ---------------------------------------------------------------------------

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() {
    core::FrameworkOptions options;
    options.catalog.popular_count = 6;
    options.catalog.sensitive_count = 2;
    framework_ = std::make_unique<core::Framework>(options);
  }

  std::unique_ptr<core::Framework> framework_;
};

TEST_F(RuntimeTest, NavigateLoadsPageAndTaintsEngineTraffic) {
  proxy::FlowStore engine_store, native_store;
  auto& runtime =
      framework_->PrepareBrowser(*FindSpec("Chrome"));
  framework_->taint_addon().SetSinks(&engine_store, &native_store);

  const auto& site = framework_->catalog().sites().front();
  auto outcome = runtime.Navigate(site.landing_url);
  EXPECT_TRUE(outcome.page.ok);
  EXPECT_TRUE(outcome.page.dom_content_loaded);
  EXPECT_GT(outcome.page.requests_succeeded, 1);

  EXPECT_GT(engine_store.size(), 0u);
  for (const auto& flow : engine_store.flows()) {
    EXPECT_EQ(flow.origin, proxy::TrafficOrigin::kEngine);
    EXPECT_FALSE(flow.taint.empty());
  }
  framework_->taint_addon().SetSinks(nullptr, nullptr);
}

TEST_F(RuntimeTest, IncognitoUnsupportedForYandexAndQq) {
  auto& yandex = framework_->PrepareBrowser(*FindSpec("Yandex"));
  const auto& site = framework_->catalog().sites().front();
  auto outcome = yandex.Navigate(site.landing_url, /*incognito=*/true);
  EXPECT_FALSE(outcome.incognito_honored);

  auto& edge = framework_->PrepareBrowser(*FindSpec("Edge"));
  auto edge_outcome = edge.Navigate(site.landing_url, /*incognito=*/true);
  EXPECT_TRUE(edge_outcome.incognito_honored);
}

TEST_F(RuntimeTest, CookiesPersistOnlyOutsideIncognito) {
  auto& runtime = framework_->PrepareBrowser(*FindSpec("Samsung"));
  const auto& site = framework_->catalog().sites().front();
  auto* app = framework_->device().FindApp(runtime.spec().package);

  runtime.Navigate(site.landing_url, /*incognito=*/true);
  EXPECT_EQ(app->cookies.size(), 0u);

  runtime.Navigate(site.landing_url, /*incognito=*/false);
  EXPECT_GT(app->cookies.size(), 0u);
  EXPECT_FALSE(app->cookies
                   .CookieHeaderFor(site.landing_url,
                                    framework_->clock().Now())
                   .empty());
}

TEST_F(RuntimeTest, CocCocBlocksAdEmbedsInEngine) {
  // Find a site with at least one ad/analytics embed.
  const web::Site* ad_site = nullptr;
  for (const auto& site : framework_->catalog().sites()) {
    for (const auto& resource : site.resources) {
      if (resource.ad_related) {
        ad_site = &site;
        break;
      }
    }
    if (ad_site != nullptr) break;
  }
  ASSERT_NE(ad_site, nullptr);

  auto& coccoc = framework_->PrepareBrowser(*FindSpec("CocCoc"));
  auto outcome = coccoc.Navigate(ad_site->landing_url);
  EXPECT_GT(outcome.page.blocked_by_adblock, 0);

  auto& chrome = framework_->PrepareBrowser(*FindSpec("Chrome"));
  auto chrome_outcome = chrome.Navigate(ad_site->landing_url);
  EXPECT_EQ(chrome_outcome.page.blocked_by_adblock, 0);
  EXPECT_GT(chrome_outcome.page.requests_attempted,
            outcome.page.requests_attempted);
}

TEST_F(RuntimeTest, StartupFiresStartupPlan) {
  proxy::FlowStore native_store;
  auto& runtime = framework_->PrepareBrowser(*FindSpec("Opera"));
  framework_->taint_addon().SetSinks(nullptr, &native_store);
  runtime.Startup();
  // Opera's startup plan touches its first-party estate.
  EXPECT_GE(native_store.size(), 5u);
  framework_->taint_addon().SetSinks(nullptr, nullptr);
}

TEST_F(RuntimeTest, PinnedHostsAreLostToCapture) {
  proxy::FlowStore native_store;
  auto& runtime = framework_->PrepareBrowser(*FindSpec("Brave"));
  framework_->taint_addon().SetSinks(nullptr, &native_store);
  runtime.Startup();  // go-updater.brave.com is pinned
  EXPECT_TRUE(native_store.ToHost("go-updater.brave.com").empty());
  EXPECT_FALSE(native_store.ToHost("variations.brave.com").empty());
  EXPECT_GT(framework_->netstack().stats().pin_failures, 0u);
  framework_->taint_addon().SetSinks(nullptr, nullptr);
}

}  // namespace
}  // namespace panoptes::browser
