// DNS (zone, stub, DoH) and public-suffix tests.
#include <gtest/gtest.h>

#include "net/dns.h"
#include "net/host_table.h"
#include "net/psl.h"
#include "util/json.h"

namespace panoptes::net {
namespace {

// A zone answers from the host table it is built over, including hosts
// the table gains after the zone was made.
TEST(DnsZone, AddLookup) {
  HostTable table(/*seed=*/1);
  DnsZone zone(&table);
  EXPECT_FALSE(zone.Has("example.com"));
  table.Add("Example.COM", IpAddress(1, 2, 3, 4), false);
  EXPECT_EQ(zone.Lookup("example.com"), IpAddress(1, 2, 3, 4));
  EXPECT_EQ(zone.Lookup("EXAMPLE.com"), IpAddress(1, 2, 3, 4));
  EXPECT_FALSE(zone.Lookup("missing.com").has_value());
  EXPECT_TRUE(zone.Has("example.com"));
  EXPECT_TRUE(zone.Has("Example.Com"));
}

TEST(DnsZone, FailureInjection) {
  HostTable table(/*seed=*/1);
  table.Add("example.com", IpAddress(1, 2, 3, 4), false);
  DnsZone zone(&table);
  zone.SetFailing("Example.com", true);
  EXPECT_FALSE(zone.Lookup("example.com").has_value());
  EXPECT_FALSE(zone.Lookup("EXAMPLE.COM").has_value());
  // A failing name still exists; only its lookups fail.
  EXPECT_TRUE(zone.Has("example.com"));
  zone.SetFailing("example.com", false);
  EXPECT_TRUE(zone.Lookup("example.com").has_value());
}

TEST(StubResolver, AnswersFromZone) {
  HostTable table(/*seed=*/1);
  table.Add("example.com", IpAddress(1, 2, 3, 4), false);
  DnsZone zone(&table);
  StubResolver resolver(&zone);
  EXPECT_EQ(resolver.Resolve("example.com"), IpAddress(1, 2, 3, 4));
  EXPECT_FALSE(resolver.Resolve("nope.com").has_value());
  EXPECT_EQ(resolver.Describe(), "stub");
}

TEST(DohResolver, ParsesRfc8484Json) {
  int calls = 0;
  DohResolver resolver("cloudflare-dns.com",
                       [&](std::string_view query_url) {
                         ++calls;
                         EXPECT_NE(query_url.find("cloudflare-dns.com"),
                                   std::string_view::npos);
                         EXPECT_NE(query_url.find("name=example.com"),
                                   std::string_view::npos);
                         return std::optional<std::string>(
                             R"({"Status":0,"Answer":[{"name":"example.com","type":1,"TTL":300,"data":"5.6.7.8"}]})");
                       });
  EXPECT_EQ(resolver.Resolve("example.com"), IpAddress(5, 6, 7, 8));
  EXPECT_EQ(resolver.Describe(), "doh:cloudflare-dns.com");
  // Cached: no second transport call.
  EXPECT_EQ(resolver.Resolve("example.com"), IpAddress(5, 6, 7, 8));
  EXPECT_EQ(calls, 1);
}

TEST(DohResolver, HandlesNxdomainAndGarbage) {
  DohResolver nx("dns.google", [](std::string_view) {
    return std::optional<std::string>(R"({"Status":3,"Answer":[]})");
  });
  EXPECT_FALSE(nx.Resolve("missing.com").has_value());

  DohResolver garbage("dns.google", [](std::string_view) {
    return std::optional<std::string>("not json");
  });
  EXPECT_FALSE(garbage.Resolve("x.com").has_value());

  DohResolver failing("dns.google",
                      [](std::string_view) -> std::optional<std::string> {
                        return std::nullopt;
                      });
  EXPECT_FALSE(failing.Resolve("x.com").has_value());
}

TEST(Psl, PublicSuffixes) {
  EXPECT_TRUE(IsPublicSuffix("com"));
  EXPECT_TRUE(IsPublicSuffix("co.uk"));
  EXPECT_TRUE(IsPublicSuffix("COM"));
  EXPECT_FALSE(IsPublicSuffix("example.com"));
  EXPECT_FALSE(IsPublicSuffix("notatld"));
}

TEST(Psl, RegistrableDomain) {
  EXPECT_EQ(RegistrableDomain("example.com"), "example.com");
  EXPECT_EQ(RegistrableDomain("a.b.example.com"), "example.com");
  EXPECT_EQ(RegistrableDomain("Example.Co.UK"), "example.co.uk");
  EXPECT_EQ(RegistrableDomain("deep.sub.example.co.uk"), "example.co.uk");
  // Paper-relevant hosts.
  EXPECT_EQ(RegistrableDomain("sba.yandex.net"), "yandex.net");
  EXPECT_EQ(RegistrableDomain("api.browser.yandex.ru"), "yandex.ru");
  EXPECT_EQ(RegistrableDomain("fastlane.rubiconproject.com"),
            "rubiconproject.com");
  EXPECT_EQ(RegistrableDomain("s-odx.oleads.com"), "oleads.com");
}

TEST(Psl, DegenerateInputs) {
  EXPECT_EQ(RegistrableDomain("localhost"), "localhost");
  EXPECT_EQ(RegistrableDomain("com"), "com");
  EXPECT_EQ(RegistrableDomain("192.168.1.1"), "192.168.1.1");
  EXPECT_EQ(RegistrableDomain("x.unknowntld"), "x.unknowntld");
  EXPECT_EQ(RegistrableDomain("a.b.unknowntld"), "b.unknowntld");
}

TEST(Psl, SameSite) {
  EXPECT_TRUE(SameSite("a.example.com", "b.example.com"));
  EXPECT_TRUE(SameSite("example.com", "www.example.com"));
  EXPECT_FALSE(SameSite("example.com", "example.org"));
  EXPECT_FALSE(SameSite("a.co.uk", "b.co.uk"));
}

TEST(Psl, HostMatchesDomain) {
  EXPECT_TRUE(HostMatchesDomain("ads.example.com", "example.com"));
  EXPECT_TRUE(HostMatchesDomain("example.com", "example.com"));
  EXPECT_FALSE(HostMatchesDomain("badexample.com", "example.com"));
  EXPECT_FALSE(HostMatchesDomain("example.com", "ads.example.com"));
  // Label-boundary regression: a host merely *ending in* the domain
  // string is not a subdomain of it.
  EXPECT_FALSE(HostMatchesDomain("notexample.com", "example.com"));
  EXPECT_FALSE(HostMatchesDomain("example.com.evil.net", "example.com"));
}

TEST(Psl, HostMatchesDomainCaseAndTrailingDot) {
  EXPECT_TRUE(HostMatchesDomain("Ad.DoubleClick.NET", "doubleclick.net"));
  EXPECT_TRUE(HostMatchesDomain("ad.doubleclick.net", "DoubleClick.NET"));
  EXPECT_TRUE(HostMatchesDomain("ad.doubleclick.net.", "doubleclick.net"));
  EXPECT_TRUE(HostMatchesDomain("ad.doubleclick.net", "doubleclick.net."));
  EXPECT_TRUE(HostMatchesDomain("Example.COM.", "example.com."));
  EXPECT_FALSE(HostMatchesDomain("notexample.COM.", "example.com"));
}

TEST(Psl, CanonicalHost) {
  EXPECT_EQ(CanonicalHost("Ad.DoubleClick.NET."), "ad.doubleclick.net");
  EXPECT_EQ(CanonicalHost("ad.doubleclick.net"), "ad.doubleclick.net");
  EXPECT_EQ(CanonicalHost("EXAMPLE.com"), "example.com");
  // Only one trailing root-label dot is stripped.
  EXPECT_EQ(CanonicalHost("example.com.."), "example.com.");
  EXPECT_EQ(CanonicalHost(""), "");
}

}  // namespace
}  // namespace panoptes::net
