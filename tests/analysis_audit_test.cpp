#include "analysis/audit.h"

#include <gtest/gtest.h>

#include "browser/profiles.h"
#include "util/hex.h"
#include "util/rng.h"

namespace panoptes::analysis {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() : hosts_list_(HostsList::Default()) {
    options_.framework.catalog.popular_count = 6;
    options_.framework.catalog.sensitive_count = 2;
    testbed_ =
        core::Testbed::Build(options_.base_seed, options_.framework.catalog);
    for (const auto& site : testbed_->world()->catalog().sites()) {
      sites_.push_back(&site);
    }
  }

  BrowserAuditReport Audit(const char* name) {
    return AuditBrowsers(options_, {*browser::FindSpec(name)}, hosts_list_)
        .front();
  }

  core::FleetOptions options_;
  std::shared_ptr<const core::Testbed> testbed_;
  HostsList hosts_list_;
  std::vector<const web::Site*> sites_;
};

TEST_F(AuditTest, YandexAuditIsSelfConsistent) {
  auto report = Audit("Yandex");
  EXPECT_EQ(report.browser, "Yandex");
  EXPECT_EQ(report.version, "23.3.7.24");
  EXPECT_EQ(report.sites_visited, sites_.size());
  EXPECT_GT(report.requests.native_requests, 0u);
  EXPECT_GT(report.requests.native_ratio, 0.2);
  EXPECT_TRUE(report.LeaksFullUrl());
  EXPECT_TRUE(report.ContactsNonEu());
  EXPECT_EQ(report.pii.LeakCount(), 6u);  // Table 2 row
  EXPECT_EQ(report.domains.ad_related_hosts, 1u);  // yandexadexchange
  // Countries: everything Yandex-native lands in RU.
  ASSERT_FALSE(report.countries.empty());
  EXPECT_EQ(report.countries.front().country_code, "RU");
}

TEST_F(AuditTest, ChromeAuditIsClean) {
  auto report = Audit("Chrome");
  EXPECT_FALSE(report.LeaksFullUrl());
  EXPECT_EQ(report.pii.LeakCount(), 0u);
  EXPECT_EQ(report.domains.ad_related_hosts, 0u);
  EXPECT_LT(report.requests.native_ratio, 0.15);
  EXPECT_GT(report.stack.pin_failures, 0u);  // clients4 pinned
  // Even a natively clean browser shows the classic engine channel:
  // third-party embeds learn the visited page via Referer.
  EXPECT_GT(report.referer.leaking_requests, 0u);
  EXPECT_FALSE(report.referer.leaks.empty());
}

TEST_F(AuditTest, MarkdownRendererCoversFindings) {
  std::vector<BrowserAuditReport> reports = {Audit("Yandex"),
                                             Audit("Chrome")};
  std::string markdown = RenderAuditMarkdown(reports);
  EXPECT_NE(markdown.find("# Panoptes browser audit"), std::string::npos);
  EXPECT_NE(markdown.find("## Yandex 23.3.7.24"), std::string::npos);
  EXPECT_NE(markdown.find("`sba.yandex.net`"), std::string::npos);
  EXPECT_NE(markdown.find("persistent identifier"), std::string::npos);
  EXPECT_NE(markdown.find("**YES**"), std::string::npos);  // full-URL cell
  EXPECT_NE(markdown.find("lower bound"), std::string::npos);  // Chrome pins
}

// The audit Markdown over four browsers (a full-URL leaker, a pinned
// clean browser, an idle-heavy one and the Frida-instrumented one) on an
// 8-site web, audited by two fleet workers. If a deliberate report-format
// change lands, re-derive the hash by running this test and copying the
// reported actual value.
TEST(AuditGolden, MarkdownIsPinned) {
  core::FleetOptions options;
  options.jobs = 2;
  options.framework.catalog.popular_count = 6;
  options.framework.catalog.sensitive_count = 2;
  std::vector<browser::BrowserSpec> browsers;
  for (const char* name : {"Yandex", "Chrome", "Opera", "UC International"}) {
    browsers.push_back(*browser::FindSpec(name));
  }
  auto reports = AuditBrowsers(options, browsers, HostsList::Default());
  ASSERT_EQ(reports.size(), 4u);
  std::string markdown = RenderAuditMarkdown(reports);
  EXPECT_NE(markdown.find("## UC International"), std::string::npos);
  EXPECT_EQ(util::Hex64(util::HashBytes64(markdown)), "0x6527a21b17631516");
}

}  // namespace
}  // namespace panoptes::analysis
