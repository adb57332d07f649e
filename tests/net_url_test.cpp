#include "net/url.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "url_inputs.h"
#include "util/rng.h"
#include "util/strings.h"

namespace panoptes::net {
namespace {

TEST(Url, ParseFull) {
  auto url = Url::Parse(
      "https://Sba.Yandex.Net:8443/safebrowsing/report?url=aHR0&x=1#frag");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->scheme(), "https");
  EXPECT_EQ(url->host(), "sba.yandex.net");  // lowercased
  EXPECT_EQ(url->EffectivePort(), 8443);
  EXPECT_EQ(url->path(), "/safebrowsing/report");
  EXPECT_EQ(url->query(), "url=aHR0&x=1");
  EXPECT_EQ(url->fragment(), "frag");
}

TEST(Url, DefaultsAndOrigin) {
  auto url = Url::Parse("http://example.com");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->EffectivePort(), 80);
  EXPECT_EQ(url->path(), "/");
  EXPECT_EQ(url->Origin(), "http://example.com");
  EXPECT_EQ(Url::Parse("https://x.org")->EffectivePort(), 443);
}

TEST(Url, SerializeRoundTrip) {
  const char* cases[] = {
      "https://example.com/",
      "https://example.com/a/b.js",
      "https://example.com/a?b=c&d=e",
      "https://example.com:8080/a?b=c#f",
      "http://sub.domain.co.uk/path%20enc?q=%26",
  };
  for (const char* text : cases) {
    auto url = Url::Parse(text);
    ASSERT_TRUE(url.has_value()) << text;
    EXPECT_EQ(url->Serialize(), text);
    // Idempotent: parse(serialize(u)) == u.
    EXPECT_EQ(Url::Parse(url->Serialize()), url);
  }
}

TEST(Url, ParseRejectsInvalid) {
  EXPECT_FALSE(Url::Parse("").has_value());
  EXPECT_FALSE(Url::Parse("not a url").has_value());
  EXPECT_FALSE(Url::Parse("ftp://example.com/").has_value());
  EXPECT_FALSE(Url::Parse("https://").has_value());
  EXPECT_FALSE(Url::Parse("https:///path").has_value());
  EXPECT_FALSE(Url::Parse("https://host:0/").has_value());
  EXPECT_FALSE(Url::Parse("https://host:99999/").has_value());
  EXPECT_FALSE(Url::Parse("https://host:abc/").has_value());
  // Leading-zero port digits re-serialize differently, breaking the
  // parse∘serialize identity — rejected, not silently rewritten.
  EXPECT_FALSE(Url::Parse("https://host:080/").has_value());
  EXPECT_FALSE(Url::Parse("https://host:00443/").has_value());
  EXPECT_FALSE(Url::Parse("https://host:01/").has_value());
}

// The same origin must never serialize two ways: an explicit
// scheme-default port normalizes away at parse time.
TEST(Url, DefaultPortNormalizesAway) {
  auto with_port = Url::Parse("https://a.com:443/x?y=1");
  auto without = Url::Parse("https://a.com/x?y=1");
  ASSERT_TRUE(with_port.has_value());
  ASSERT_TRUE(without.has_value());
  EXPECT_EQ(*with_port, *without);
  EXPECT_FALSE(with_port->has_explicit_port());
  EXPECT_EQ(with_port->EffectivePort(), 443);
  EXPECT_EQ(with_port->Origin(), "https://a.com");
  EXPECT_EQ(with_port->Serialize(), "https://a.com/x?y=1");

  auto http = Url::Parse("http://b.org:80/");
  ASSERT_TRUE(http.has_value());
  EXPECT_EQ(http->Origin(), "http://b.org");
  EXPECT_EQ(http->Serialize(), "http://b.org/");

  // Non-default ports survive untouched, cross-scheme defaults too.
  EXPECT_EQ(Url::MustParse("https://a.com:8443/").Origin(),
            "https://a.com:8443");
  EXPECT_EQ(Url::MustParse("https://a.com:80/").Origin(), "https://a.com:80");
  EXPECT_EQ(Url::MustParse("http://a.com:443/").Origin(), "http://a.com:443");
}

TEST(UrlView, RejectsNonCanonicalPortSpellings) {
  // A UrlView slices its text verbatim, so text Url would rewrite is
  // not a serialization and must not parse.
  EXPECT_FALSE(UrlView::Parse("https://a.com:443/").has_value());
  EXPECT_FALSE(UrlView::Parse("http://a.com:80/").has_value());
  EXPECT_FALSE(UrlView::Parse("https://a.com:080/").has_value());
  EXPECT_FALSE(UrlView::Parse("https://a.com:0443/").has_value());
  // The cross-scheme defaults are ordinary explicit ports.
  auto cross = UrlView::Parse("http://a.com:443/");
  ASSERT_TRUE(cross.has_value());
  EXPECT_EQ(cross->EffectivePort(), 443);
  EXPECT_EQ(cross->Origin(), "http://a.com:443");
  auto high = UrlView::Parse("https://a.com:8443/p");
  ASSERT_TRUE(high.has_value());
  EXPECT_EQ(high->Origin(), "https://a.com:8443");
}

// Url and UrlView agree on the origin string for every accepted text —
// the property the cross-origin joins lean on.
TEST(UrlView, OriginAgreesWithUrl) {
  const char* cases[] = {
      "https://a.com/",
      "https://a.com:8443/x",
      "http://a.com:443/x?q=1",
      "http://b.org/deep/path#f",
  };
  for (const char* text : cases) {
    auto url = Url::Parse(text);
    auto view = UrlView::Parse(text);
    ASSERT_TRUE(url.has_value()) << text;
    ASSERT_TRUE(view.has_value()) << text;
    EXPECT_EQ(url->Origin(), view->Origin()) << text;
    EXPECT_EQ(url->Serialize(), view->Serialize()) << text;
  }
}

TEST(Url, RequestTarget) {
  EXPECT_EQ(Url::MustParse("https://h/a/b?x=1").RequestTarget(), "/a/b?x=1");
  EXPECT_EQ(Url::MustParse("https://h/").RequestTarget(), "/");
}

TEST(Url, QueryParamsDecoded) {
  auto url = Url::MustParse("https://h/?a=1&b=hello%20world&c&d=%3D");
  auto params = url.QueryParams();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(params[1].second, "hello world");
  EXPECT_EQ(params[2].second, "");
  EXPECT_EQ(params[3].second, "=");
  EXPECT_EQ(url.QueryParam("b"), "hello world");
  EXPECT_FALSE(url.QueryParam("zzz").has_value());
}

TEST(Url, AddQueryParamEncodes) {
  Url url = Url::MustParse("https://api.browser.yandex.ru/track");
  url.AddQueryParam("host", "example.com");
  url.AddQueryParam("payload", "a b&c=d");
  EXPECT_EQ(url.Serialize(),
            "https://api.browser.yandex.ru/track?host=example.com&"
            "payload=a%20b%26c%3Dd");
  EXPECT_EQ(url.QueryParam("payload"), "a b&c=d");
}

TEST(Url, Base64ParamSurvivesEncoding) {
  // The Yandex phone-home pattern: base64 of a URL ('+', '/', '=' all
  // need escaping) must round-trip through the query string.
  std::string b64 = "aHR0cHM6Ly9leGFtcGxlLmNvbS8+/w==";
  Url url = Url::MustParse("https://sba.yandex.net/report");
  url.AddQueryParam("url", b64);
  EXPECT_EQ(Url::Parse(url.Serialize())->QueryParam("url"), b64);
}

// Url owns its text and re-points its layout on every access, so a
// copy or move never reads the source's buffer — short URLs live in the
// small-string buffer, which moves with the object.
void ExpectUrl(const Url& url, std::string_view text) {
  const UrlView want = *UrlView::Parse(text);
  EXPECT_EQ(url.Serialize(), text);
  EXPECT_EQ(url.scheme(), want.scheme());
  EXPECT_EQ(url.host(), want.host());
  EXPECT_EQ(url.authority(), want.authority());
  EXPECT_EQ(url.EffectivePort(), want.EffectivePort());
  EXPECT_EQ(url.path(), want.path());
  EXPECT_EQ(url.query(), want.query());
  EXPECT_EQ(url.fragment(), want.fragment());
  EXPECT_EQ(url.Origin(), want.Origin());
  EXPECT_EQ(url.RequestTarget(), want.RequestTarget());
  EXPECT_EQ(url.QueryParams(), want.QueryParams());
  EXPECT_EQ(url.view().text().data(), url.Serialize().data());
}

TEST(Url, CopiesAndMovesKeepTheirOwnText) {
  const std::string short_text = "http://a.b/c?d";
  const std::string long_text =
      "https://tracker.example.com:8443/a/long/path?x=1&y=%20#fragment";
  ASSERT_LE(short_text.size(), std::string().capacity());  // inline buffer
  for (const std::string* text : {&short_text, &long_text}) {
    const std::string& other = text == &short_text ? long_text : short_text;
    SCOPED_TRACE(*text);

    auto source = std::make_unique<Url>(Url::MustParse(*text));
    Url copied(*source);
    Url copy_assigned = Url::MustParse(other);
    copy_assigned = *source;
    Url moved(std::move(*source));
    source.reset();
    ExpectUrl(copied, *text);
    ExpectUrl(copy_assigned, *text);
    ExpectUrl(moved, *text);

    source = std::make_unique<Url>(Url::MustParse(*text));
    Url move_assigned = Url::MustParse(other);
    move_assigned = std::move(*source);
    source.reset();
    ExpectUrl(move_assigned, *text);

    Url& alias = move_assigned;  // self-assignment
    move_assigned = alias;
    ExpectUrl(move_assigned, *text);

    // Vector growth relocates every element.
    std::vector<Url> urls;
    for (int i = 0; i < 64; ++i) urls.push_back(Url::MustParse(*text));
    for (const Url& url : urls) ExpectUrl(url, *text);
  }

  // AddQueryParam splices in before the fragment, and only into its own
  // text.
  const Url original = Url::MustParse("https://a.com/p#frag");
  Url url = original;
  url.AddQueryParam("k", "v#w");
  ExpectUrl(url, "https://a.com/p?k=" + util::PercentEncode("v#w") + "#frag");
  url.AddQueryParam("n", "2");
  ExpectUrl(url,
            "https://a.com/p?k=" + util::PercentEncode("v#w") + "&n=2#frag");
  EXPECT_EQ(url.QueryParam("k"), "v#w");
  ExpectUrl(original, "https://a.com/p#frag");
}

TEST(Url, EncodeQueryHelper) {
  EXPECT_EQ(EncodeQuery({{"a", "1"}, {"b c", "d&e"}}), "a=1&b%20c=d%26e");
  EXPECT_EQ(EncodeQuery({}), "");
}

// Link decoration makes degenerate query shapes common (trackers
// append params mechanically), so the raw split must be pinned.
TEST(Url, ForEachQueryParamRawEdgeCases) {
  auto split = [](std::string_view query) {
    std::vector<std::pair<std::string, std::string>> out;
    ForEachQueryParamRaw(query, [&](std::string_view k, std::string_view v) {
      out.emplace_back(std::string(k), std::string(v));
    });
    return out;
  };
  using Pairs = std::vector<std::pair<std::string, std::string>>;

  // Empty name before '=': one pair with empty key.
  EXPECT_EQ(split("=v"), (Pairs{{"", "v"}}));
  // Bare key (no '='): empty value.
  EXPECT_EQ(split("key"), (Pairs{{"key", ""}}));
  // Trailing '&' and doubled '&&': empty pieces are skipped.
  EXPECT_EQ(split("a=1&"), (Pairs{{"a", "1"}}));
  EXPECT_EQ(split("a=1&&b=2"), (Pairs{{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(split("&a=1"), (Pairs{{"a", "1"}}));
  EXPECT_EQ(split("&&&"), Pairs{});
  EXPECT_EQ(split(""), Pairs{});
  // Value containing '=': split at the first only.
  EXPECT_EQ(split("a=b=c"), (Pairs{{"a", "b=c"}}));
  // Lone '=' piece: both sides empty.
  EXPECT_EQ(split("="), (Pairs{{"", ""}}));

  // Pin the raw split against the decode path: same pieces, in order,
  // for every edge shape above plus percent-encoded mixtures.
  const char* queries[] = {
      "=v", "key", "a=1&", "a=1&&b=2", "&a=1", "&&&", "", "a=b=c", "=",
      "a=%3D&=x&&b", "pan_uid=abc123&dest=https%3A%2F%2Fs.com%2F&",
  };
  for (const char* q : queries) {
    auto raw = split(q);
    auto decoded = DecodeQueryParams(q);
    ASSERT_EQ(raw.size(), decoded.size()) << q;
    for (size_t i = 0; i < raw.size(); ++i) {
      EXPECT_EQ(util::PercentDecode(raw[i].first), decoded[i].first) << q;
      EXPECT_EQ(util::PercentDecode(raw[i].second), decoded[i].second) << q;
    }
  }
}

// Property: parse∘serialize is the identity over generated URLs.
class UrlRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(UrlRoundTrip, Holds) {
  util::Rng rng(static_cast<uint64_t>(GetParam()));
  const auto [text, port] = url_inputs::GenerateUrl(rng);

  auto url = Url::Parse(text);
  ASSERT_TRUE(url.has_value()) << text;
  // Value identity always holds; text identity holds except when the
  // random port happened to be the scheme default, which normalizes
  // away (and must still round-trip as a value).
  EXPECT_EQ(Url::Parse(url->Serialize()), url) << text;
  EXPECT_EQ(url->has_explicit_port(), port != 0 && port != 443) << text;
  EXPECT_EQ(url->EffectivePort(), port == 0 ? 443 : port) << text;
  if (port != 443) {
    EXPECT_EQ(url->Serialize(), text);
  }
  // Serialize is a fixed point: the canonical spelling re-parses to
  // itself byte for byte.
  EXPECT_EQ(Url::Parse(url->Serialize())->Serialize(), url->Serialize());
  // And the view accepts exactly the canonical spelling. The view
  // borrows, so the serialized text must outlive it.
  std::string canonical = url->Serialize();
  auto view = UrlView::Parse(canonical);
  ASSERT_TRUE(view.has_value()) << canonical;
  EXPECT_EQ(view->Origin(), url->Origin());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UrlRoundTrip, ::testing::Range(0, 50));

}  // namespace
}  // namespace panoptes::net
