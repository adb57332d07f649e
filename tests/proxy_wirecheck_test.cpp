#include "oracle/wirecheck.h"

#include <gtest/gtest.h>

#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"

namespace panoptes::proxy {
namespace {

TEST(WireCheck, CleanRequestPasses) {
  WireCheckAddon addon;
  Flow flow;
  net::HttpRequest request;
  request.url = net::Url::MustParse("https://a.com/x?y=1");
  request.headers.Add("User-Agent", "UA");
  addon.OnRequest(flow, request);
  EXPECT_EQ(addon.checked(), 1u);
  EXPECT_EQ(addon.mismatches(), 0u);
}

TEST(WireCheck, PostWithBodyAndLengthPasses) {
  WireCheckAddon addon;
  Flow flow;
  net::HttpRequest request;
  request.method = net::HttpMethod::kPost;
  request.url = net::Url::MustParse("https://a.com/submit");
  request.body = "{\"k\":1}";
  request.headers.Add("Content-Length", std::to_string(request.body.size()));
  addon.OnRequest(flow, request);
  EXPECT_EQ(addon.mismatches(), 0u);
}

TEST(WireCheck, CorruptContentLengthIsCaught) {
  WireCheckAddon addon;
  Flow flow;
  net::HttpRequest request;
  request.method = net::HttpMethod::kPost;
  request.url = net::Url::MustParse("https://a.com/submit");
  request.body = "short";
  request.headers.Add("Content-Length", "9999");  // lies about the body
  addon.OnRequest(flow, request);
  EXPECT_EQ(addon.mismatches(), 1u);
  ASSERT_EQ(addon.mismatch_log().size(), 1u);
  EXPECT_NE(addon.mismatch_log()[0].find("a.com"), std::string::npos);
}

TEST(WireCheck, WholeCrawlIsWireClean) {
  // Every request the whole stack generates — engine, native, DoH,
  // telemetry bodies — must survive the wire round trip.
  core::FrameworkOptions options;
  options.catalog.popular_count = 5;
  options.catalog.sensitive_count = 3;
  core::Framework framework(options);

  auto wirecheck = std::make_shared<WireCheckAddon>();
  framework.proxy().AddAddon(wirecheck);

  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);
  for (const char* name : {"Yandex", "Opera", "QQ", "UC International"}) {
    core::RunCrawl(framework, *browser::FindSpec(name), sites);
  }

  EXPECT_GT(wirecheck->checked(), 500u);
  EXPECT_EQ(wirecheck->mismatches(), 0u);
  for (const auto& entry : wirecheck->mismatch_log()) {
    ADD_FAILURE() << "wire mismatch: " << entry;
  }
}

}  // namespace
}  // namespace panoptes::proxy
