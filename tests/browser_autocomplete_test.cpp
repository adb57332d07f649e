// Address-bar autocomplete: fires suggest queries (which is why the
// campaigns never touch the address bar).
#include <gtest/gtest.h>

#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"

namespace panoptes::browser {
namespace {

class AutocompleteTest : public ::testing::Test {
 protected:
  AutocompleteTest() {
    core::FrameworkOptions options;
    options.catalog.popular_count = 3;
    options.catalog.sensitive_count = 0;
    framework_ = std::make_unique<core::Framework>(options);
  }
  std::unique_ptr<core::Framework> framework_;
};

TEST_F(AutocompleteTest, TypingFiresOneQueryPerKeystroke) {
  proxy::FlowStore native_store;
  auto& runtime = framework_->PrepareBrowser(*FindSpec("Yandex"));
  framework_->taint_addon().SetSinks(nullptr, &native_store);

  int fired = runtime.TypeInAddressBar("example.org");
  EXPECT_EQ(fired, static_cast<int>(std::string("example.org").size()) - 2);

  auto suggests = native_store.ToHost("api.browser.yandex.ru");
  size_t with_q = 0;
  for (const auto& flow : suggests) {
    if (auto q = flow.url.QueryParam("q")) {
      ++with_q;
      // Every prefix leaks, down to the first three characters.
      EXPECT_EQ(std::string("example.org").rfind(*q, 0), 0u) << *q;
    }
  }
  EXPECT_EQ(with_q, static_cast<size_t>(fired));
  framework_->taint_addon().SetSinks(nullptr, nullptr);
}

TEST_F(AutocompleteTest, ShortInputFiresNothing) {
  auto& runtime = framework_->PrepareBrowser(*FindSpec("Chrome"));
  EXPECT_EQ(runtime.TypeInAddressBar("ab"), 0);
  EXPECT_EQ(runtime.TypeInAddressBar(""), 0);
}

TEST_F(AutocompleteTest, CdpDrivenCrawlsNeverTouchSuggestEndpoints) {
  std::vector<const web::Site*> sites;
  for (const auto& site : framework_->catalog().sites()) sites.push_back(&site);

  auto result =
      core::RunCrawl(*framework_, *FindSpec("Chrome"), sites);
  // clients4.google.com is both Chrome's suggest endpoint and a
  // startup host — but no flow may carry an autocomplete "q" param.
  for (const auto& flow : result.native_flows->flows()) {
    EXPECT_FALSE(flow.url.QueryParam("q").has_value())
        << "autocomplete pollution: " << flow.url.Serialize();
  }
}

TEST_F(AutocompleteTest, EverySpecHasASuggestEndpoint) {
  for (const auto& spec : AllBrowserSpecs()) {
    EXPECT_FALSE(spec.suggest_host.empty()) << spec.name;
  }
}

}  // namespace
}  // namespace panoptes::browser
