// The one URL parser against the component-splitting parser it replaced
// (tests/oracle/url_parse.h): over the fuzz and round-trip generators'
// inputs and the normalizing spellings, both accept the same texts and
// agree on every accessor.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "net/url.h"
#include "oracle/url_parse.h"
#include "url_inputs.h"
#include "util/rng.h"

namespace panoptes::net {
namespace {

void ExpectSame(const Url& url, const oracle::ComponentUrl& want,
                std::string_view input) {
  SCOPED_TRACE(std::string(input));
  EXPECT_EQ(url.scheme(), want.scheme());
  EXPECT_EQ(url.host(), want.host());
  EXPECT_EQ(url.EffectivePort(), want.EffectivePort());
  EXPECT_EQ(url.has_explicit_port(), want.has_explicit_port());
  EXPECT_EQ(url.path(), want.path());
  EXPECT_EQ(url.query(), want.query());
  EXPECT_EQ(url.fragment(), want.fragment());
  EXPECT_EQ(url.Origin(), want.Origin());
  EXPECT_EQ(url.RequestTarget(), want.RequestTarget());
  EXPECT_EQ(url.Serialize(), want.Serialize());
  const auto params = url.QueryParams();
  EXPECT_EQ(params, want.QueryParams());
  for (const auto& [name, value] : params) {
    EXPECT_EQ(url.QueryParam(name), want.QueryParam(name)) << name;
  }
  EXPECT_EQ(url.QueryParam("absent-name"), std::nullopt);
}

// Both parsers accept `input` or both reject it; accepted, they agree
// before and after an AddQueryParam.
void ExpectAgreement(std::string_view input) {
  auto want = oracle::ComponentUrl::Parse(input);
  auto url = Url::Parse(input);
  ASSERT_EQ(url.has_value(), want.has_value()) << input;
  if (!url) return;
  ExpectSame(*url, *want, input);
  url->AddQueryParam("k", "v&#w");
  want->AddQueryParam("k", "v&#w");
  ExpectSame(*url, *want, input);
}

TEST(UrlOracle, ParseAgreesWithTheComponentParser) {
  // UrlFuzz's inputs: byte soup, "https://" + soup, one-byte mutants.
  for (int seed = 0; seed < 10; ++seed) {
    util::Rng rng(static_cast<uint64_t>(seed) * 2654435761u + 11);
    for (int i = 0; i < 200; ++i) {
      ExpectAgreement(url_inputs::FuzzUrlInput(rng));
    }
  }
  // UrlRoundTrip's well-formed URLs, and their uppercase spellings.
  for (int seed = 0; seed < 200; ++seed) {
    util::Rng rng(static_cast<uint64_t>(seed));
    std::string text = url_inputs::GenerateUrl(rng).text;
    ExpectAgreement(text);
    for (char& c : text) {
      if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    }
    ExpectAgreement(text);
  }

  const char* cases[] = {
      // Uppercase scheme and host; the path keeps its case.
      "HTTPS://Sba.Yandex.NET/Report?Q=X#F", "Http://A.com/",
      // Default, non-default and malformed ports.
      "https://a.com:443/p", "http://a.com:80/p", "https://a.com:80/p",
      "http://a.com:443/p", "https://a.com:8443/p", "https://a.com:080/p",
      "https://a.com:0443/", "https://a.com:0/", "https://a.com:65536/",
      "https://a.com:/", "https://a.com:443", "HTTPS://A.COM:443?q=1",
      // No path.
      "https://a.com", "https://a.com?q=1", "https://a.com#f",
      "http://a.com:8080",
      // Bare '?' and '#', alone and together.
      "https://a.com/p?", "https://a.com/p#", "https://a.com/p?#",
      "https://a.com/p?#f", "https://a.com/p?q#", "https://a.com?",
      "https://a.com#",
      // Query then fragment, and a '?' inside the fragment.
      "https://a.com/p?q=1&r=%20#frag", "https://a.com/p#f?not=query",
      // Rejected outright.
      "", "https://", "https:///p", "ftp://a.com/", "https//a.com/",
      "https://:8443/",
  };
  for (const char* text : cases) ExpectAgreement(text);

  // The default-constructed URLs agree too.
  ExpectSame(Url(), oracle::ComponentUrl(), "<default>");
  Url url;
  oracle::ComponentUrl want;
  url.AddQueryParam("a", "b");
  want.AddQueryParam("a", "b");
  ExpectSame(url, want, "<default> + a=b");
}

// The component parser accepted a host holding ':' beside a dropped
// default port, producing a URL its own parser rejects on reparse. The
// canonical parser rejects the text instead of re-slicing its host.
TEST(UrlOracle, RejectsWhatTheComponentParserCouldNotReparse) {
  for (const char* text : {"https://a.com::443/", "https://[::1]:443/",
                           "http://a:5:80/p"}) {
    auto want = oracle::ComponentUrl::Parse(text);
    ASSERT_TRUE(want.has_value()) << text;
    auto reparsed = oracle::ComponentUrl::Parse(want->Serialize());
    EXPECT_FALSE(reparsed && reparsed->host() == want->host()) << text;
    EXPECT_FALSE(Url::Parse(text).has_value()) << text;
  }
}

}  // namespace
}  // namespace panoptes::net
