#include "net/cookies.h"

#include <gtest/gtest.h>

namespace panoptes::net {
namespace {

const Url kPage = Url::MustParse("https://shop.example.com/cart/view");
constexpr util::SimTime kNow{1'000'000};

TEST(SetCookieParse, Basic) {
  auto cookie = ParseSetCookie("sid=abc123", kPage, kNow);
  ASSERT_TRUE(cookie.has_value());
  EXPECT_EQ(cookie->name, "sid");
  EXPECT_EQ(cookie->value, "abc123");
  EXPECT_EQ(cookie->domain, "shop.example.com");
  EXPECT_TRUE(cookie->host_only);
  EXPECT_EQ(cookie->path, "/");
  EXPECT_FALSE(cookie->expires.has_value());
}

TEST(SetCookieParse, Attributes) {
  auto cookie = ParseSetCookie(
      "sid=x; Path=/cart; Secure; HttpOnly; Max-Age=3600", kPage, kNow);
  ASSERT_TRUE(cookie.has_value());
  EXPECT_EQ(cookie->path, "/cart");
  EXPECT_TRUE(cookie->secure);
  EXPECT_TRUE(cookie->http_only);
  ASSERT_TRUE(cookie->expires.has_value());
  EXPECT_EQ(cookie->expires->millis, kNow.millis + 3600 * 1000);
}

TEST(SetCookieParse, DomainWideningRules) {
  // Widening to a parent domain is allowed.
  auto parent = ParseSetCookie("a=1; Domain=example.com", kPage, kNow);
  ASSERT_TRUE(parent.has_value());
  EXPECT_EQ(parent->domain, "example.com");
  EXPECT_FALSE(parent->host_only);

  // Leading dot is stripped.
  auto dotted = ParseSetCookie("a=1; Domain=.example.com", kPage, kNow);
  ASSERT_TRUE(dotted.has_value());
  EXPECT_EQ(dotted->domain, "example.com");

  // Setting a foreign domain is rejected.
  EXPECT_FALSE(ParseSetCookie("a=1; Domain=evil.com", kPage, kNow));
  EXPECT_FALSE(ParseSetCookie("a=1; Domain=other.example.org", kPage, kNow));
}

TEST(SetCookieParse, Malformed) {
  EXPECT_FALSE(ParseSetCookie("", kPage, kNow).has_value());
  EXPECT_FALSE(ParseSetCookie("noequals", kPage, kNow).has_value());
  EXPECT_FALSE(ParseSetCookie("=value", kPage, kNow).has_value());
}

TEST(CookieMatch, Domain) {
  EXPECT_TRUE(CookieDomainMatch("a.example.com", "example.com"));
  EXPECT_TRUE(CookieDomainMatch("example.com", "example.com"));
  EXPECT_FALSE(CookieDomainMatch("badexample.com", "example.com"));
  EXPECT_FALSE(CookieDomainMatch("example.com", "a.example.com"));
}

TEST(CookieMatch, Path) {
  EXPECT_TRUE(CookiePathMatch("/cart/view", "/cart"));
  EXPECT_TRUE(CookiePathMatch("/cart", "/cart"));
  EXPECT_TRUE(CookiePathMatch("/cart/view", "/"));
  EXPECT_FALSE(CookiePathMatch("/cartel", "/cart"));
  EXPECT_FALSE(CookiePathMatch("/", "/cart"));
}

TEST(CookieMatch, EmptyCookiePathMatchesNothing) {
  EXPECT_FALSE(CookiePathMatch("/x", ""));
  EXPECT_FALSE(CookiePathMatch("/", ""));
  EXPECT_FALSE(CookiePathMatch("", ""));

  // Store takes such a cookie through the public API; no request sees
  // it, and it sits alongside a well-formed one.
  CookieJar jar;
  Cookie empty_path;
  empty_path.name = "bad";
  empty_path.value = "1";
  empty_path.domain = "shop.example.com";
  empty_path.path = "";
  jar.Store(empty_path);
  jar.SetFromHeader("sid=1", kPage, kNow);
  EXPECT_EQ(jar.size(), 2u);
  EXPECT_EQ(jar.CookieHeaderFor(kPage, kNow), "sid=1");
  EXPECT_EQ(jar.CookieHeaderFor(Url::MustParse("https://shop.example.com/"),
                                kNow),
            "sid=1");
}

TEST(CookieJarTest, StoreAndMatch) {
  CookieJar jar;
  jar.SetFromHeader("sid=1; Path=/", kPage, kNow);
  jar.SetFromHeader("cart=2; Path=/cart", kPage, kNow);
  jar.SetFromHeader("other=3; Path=/account", kPage, kNow);

  std::string header = jar.CookieHeaderFor(kPage, kNow);
  // Longest path first; /account doesn't match /cart/view.
  EXPECT_EQ(header, "cart=2; sid=1");
}

TEST(CookieJarTest, ReplacementByNameDomainPath) {
  CookieJar jar;
  jar.SetFromHeader("sid=old", kPage, kNow);
  jar.SetFromHeader("sid=new", kPage, kNow);
  EXPECT_EQ(jar.size(), 1u);
  EXPECT_EQ(jar.CookieHeaderFor(kPage, kNow), "sid=new");
}

TEST(CookieJarTest, SecureCookiesSkippedOnHttp) {
  CookieJar jar;
  jar.SetFromHeader("sid=1; Secure", kPage, kNow);
  Url http_page = Url::MustParse("http://shop.example.com/cart/view");
  EXPECT_EQ(jar.CookieHeaderFor(http_page, kNow), "");
  EXPECT_EQ(jar.CookieHeaderFor(kPage, kNow), "sid=1");
}

TEST(CookieJarTest, HostOnlyVsDomainCookies) {
  CookieJar jar;
  jar.SetFromHeader("host_only=1", kPage, kNow);
  jar.SetFromHeader("domain_wide=1; Domain=example.com", kPage, kNow);

  Url sibling = Url::MustParse("https://pay.example.com/");
  EXPECT_EQ(jar.CookieHeaderFor(sibling, kNow), "domain_wide=1");
  EXPECT_EQ(jar.CookieHeaderFor(kPage, kNow), "host_only=1; domain_wide=1");
}

TEST(CookieJarTest, ExpiryEvicts) {
  CookieJar jar;
  jar.SetFromHeader("temp=1; Max-Age=10", kPage, kNow);
  EXPECT_EQ(jar.CookieHeaderFor(kPage, kNow), "temp=1");
  util::SimTime later{kNow.millis + 11 * 1000};
  EXPECT_EQ(jar.CookieHeaderFor(kPage, later), "");
  EXPECT_EQ(jar.size(), 0u);  // evicted
}

TEST(CookieJarTest, NegativeMaxAgeDeletesImmediately) {
  CookieJar jar;
  jar.SetFromHeader("gone=1; Max-Age=-1", kPage, kNow);
  EXPECT_EQ(jar.CookieHeaderFor(kPage, kNow), "");
}

TEST(CookieJarTest, ClearWipes) {
  CookieJar jar;
  jar.SetFromHeader("a=1", kPage, kNow);
  jar.SetFromHeader("b=2", kPage, kNow);
  jar.Clear();
  EXPECT_EQ(jar.size(), 0u);
}

}  // namespace
}  // namespace panoptes::net
