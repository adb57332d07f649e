// The domain-indexed CookieJar against the whole-jar scan it replaced
// (tests/oracle/cookie_scan). Every lookup must return the same cookies
// in the same order: equal-length paths come out in whatever order
// std::sort leaves them, which only matches when the sort is handed
// the same sequence.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "browser/profiles.h"
#include "chaos/profile.h"
#include "core/campaign.h"
#include "core/framework.h"
#include "net/cookies.h"
#include "oracle/cookie_scan.h"
#include "proxy/addon.h"
#include "util/rng.h"

namespace panoptes {
namespace {

// Identity of each returned cookie, in order.
std::vector<std::string> Describe(const std::vector<const net::Cookie*>& out) {
  std::vector<std::string> lines;
  for (const auto* cookie : out) {
    lines.push_back(cookie->name + "=" + cookie->value + " " +
                    cookie->domain + cookie->path);
  }
  return lines;
}

// Random Store / SetFromHeader / lookup sequences over overlapping
// domains, mixed-case domains, equal-length paths (including the empty
// path Store accepts), Secure and expiring cookies. Lookups on the
// parent domain match far more than 16 cookies, so std::sort leaves
// its insertion-sort-only (stable) regime.
TEST(CookieIndex, RandomJarsMatchTheScan) {
  const std::vector<std::string> domains = {
      "a.com", "x.a.com", "y.x.a.com", "A.com", "X.A.Com", "b.org", "com",
      ""};
  const std::vector<std::string> paths = {"/",    "/a",  "/b",   "/ab",
                                          "/cd",  "/a/", "/a/b", ""};
  const std::vector<std::string> hosts = {"a.com",     "x.a.com",
                                          "y.x.a.com", "z.y.x.a.com",
                                          "b.org",     "other.net"};
  const std::vector<std::string> request_paths = {"/", "/a", "/a/b", "/ab",
                                                  "/cd/e", "/b"};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    net::CookieJar jar;
    oracle::ScanCookieJar scan;
    util::SimTime now{1'000'000};
    uint64_t serial = 0;
    size_t big_lookups = 0;
    for (int op = 0; op < 3000; ++op) {
      now.millis += static_cast<int64_t>(rng.NextBelow(2000));
      const uint64_t kind = rng.NextBelow(10);
      if (kind < 5) {
        net::Cookie cookie;
        cookie.name = "n" + std::to_string(rng.NextBelow(40));
        cookie.value = std::to_string(++serial);
        cookie.domain = rng.Pick(domains);
        cookie.host_only = rng.NextBool(0.4);
        cookie.path = rng.Pick(paths);
        cookie.secure = rng.NextBool(0.3);
        if (rng.NextBool(0.3)) {
          cookie.expires = util::SimTime{
              now.millis + static_cast<int64_t>(rng.NextBelow(60'000))};
        }
        scan.Store(cookie);
        jar.Store(std::move(cookie));
      } else if (kind < 6) {
        auto url = net::Url::MustParse("https://" + rng.Pick(hosts) +
                                       rng.Pick(request_paths));
        std::string header = "h" + std::to_string(rng.NextBelow(8)) + "=" +
                             std::to_string(++serial) + "; Path=" +
                             rng.Pick(paths);
        if (rng.NextBool(0.5)) header += "; Domain=a.com";
        if (rng.NextBool(0.2)) header += "; Max-Age=30";
        EXPECT_EQ(jar.SetFromHeader(header, url, now),
                  scan.SetFromHeader(header, url, now));
      } else {
        std::string scheme = rng.NextBool(0.7) ? "https://" : "http://";
        auto url = net::Url::MustParse(scheme + rng.Pick(hosts) +
                                       rng.Pick(request_paths));
        auto expected = scan.MatchingCookies(url, now);
        auto actual = jar.MatchingCookies(url, now);
        if (expected.size() > 16) ++big_lookups;
        ASSERT_EQ(Describe(actual), Describe(expected)) << url.Serialize();
        ASSERT_EQ(jar.CookieHeaderFor(url, now),
                  scan.CookieHeaderFor(url, now));
      }
      ASSERT_EQ(jar.size(), scan.size());
    }
    EXPECT_GT(big_lookups, 0u);
  }
}

// Records, in proxy order, each engine request's Cookie header (as the
// production jar built it) and each response the engine stores
// cookies from.
class CookieTraceAddon : public proxy::Addon {
 public:
  struct Exchange {
    net::Url url;
    util::SimTime time;
    std::string cookie_header;  // empty when the request carried none
    int status = 0;
    std::string set_cookie;  // empty when the response carried none
  };

  void OnRequest(proxy::Flow& flow, net::HttpRequest& request) override {
    pending_ = Exchange{};
    if (flow.origin != proxy::TrafficOrigin::kEngine) return;
    pending_.url = request.url;
    pending_.time = flow.time;
    pending_.cookie_header = request.headers.Get("Cookie").value_or("");
  }

  void OnResponse(proxy::Flow& flow,
                  const net::HttpResponse& response) override {
    if (flow.origin != proxy::TrafficOrigin::kEngine) return;
    pending_.status = response.status;
    pending_.set_cookie = response.headers.Get("Set-Cookie").value_or("");
    exchanges.push_back(std::move(pending_));
  }

  std::vector<Exchange> exchanges;

 private:
  Exchange pending_;
};

// A crawl of a generated web with bounce tracking under the "flaky"
// fault profile, replayed through the scan: every Cookie header the
// indexed jar produced must be the one the scan produces after the
// same stores. The generated web sets no expiring cookie, so the
// replay's lookup time (the flow's) cannot change a match.
TEST(CookieIndex, CrawlCookieHeadersMatchTheScan) {
  for (std::string_view name : {"Yandex", "DuckDuckGo"}) {
    SCOPED_TRACE(std::string(name));
    core::FrameworkOptions options;
    options.catalog.popular_count = 8;
    options.catalog.sensitive_count = 2;
    options.catalog.sitegen.bounce_fraction = 0.5;
    options.chaos = *chaos::FaultProfile::Named("flaky");
    core::Framework framework(options);
    auto trace = std::make_shared<CookieTraceAddon>();
    framework.proxy().AddAddon(trace);

    const browser::BrowserSpec& spec = *browser::FindSpec(name);
    std::vector<const web::Site*> sites;
    for (const auto& site : framework.catalog().sites()) {
      sites.push_back(&site);
    }
    core::RunCrawl(framework, spec, sites);

    oracle::ScanCookieJar scan;
    size_t with_cookies = 0;
    for (const auto& exchange : trace->exchanges) {
      EXPECT_EQ(exchange.cookie_header,
                scan.CookieHeaderFor(exchange.url, exchange.time))
          << exchange.url.Serialize();
      if (!exchange.cookie_header.empty()) ++with_cookies;
      // The engine keeps cookies from every response below 400 it
      // reads (redirect hops included).
      if (!exchange.set_cookie.empty() && exchange.status < 400) {
        scan.SetFromHeader(exchange.set_cookie, exchange.url, exchange.time);
      }
    }
    EXPECT_GT(with_cookies, 0u);
    const device::InstalledApp* app = framework.device().FindApp(spec.package);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->cookies.size(), scan.size());
    EXPECT_GT(scan.size(), 0u);
  }
}

}  // namespace
}  // namespace panoptes
