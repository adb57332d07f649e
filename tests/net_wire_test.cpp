#include "oracle/wire.h"

#include <gtest/gtest.h>

#include <utility>

#include "util/rng.h"

namespace panoptes::net {
namespace {

TEST(Wire, FormatRequestShape) {
  HttpRequest request;
  request.method = HttpMethod::kPost;
  request.url = Url::MustParse("https://sba.yandex.net/report?url=abc");
  request.headers.Add("User-Agent", "YaBrowser/23");
  request.headers.Add("Content-Length", "4");
  request.body = "data";

  std::string wire = FormatRequest(request);
  EXPECT_EQ(wire.rfind("POST /report?url=abc HTTP/1.1\r\n", 0), 0u);
  EXPECT_NE(wire.find("Host: sba.yandex.net\r\n"), std::string::npos);
  EXPECT_NE(wire.find("User-Agent: YaBrowser/23\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\ndata"), std::string::npos);
}

TEST(Wire, WireSizeMatchesRenderedBytes) {
  // The Fig 4 byte accounting uses WireSize(); the codec is its ground
  // truth. (WireSize counts the implicit Host line's bytes via the
  // request-line approximation, so allow the Host-line delta.)
  HttpRequest request;
  request.url = Url::MustParse("https://example.com/a/b?c=d");
  request.headers.Add("User-Agent", "UA");
  request.headers.Add("Accept", "*/*");
  request.body = "xyz";
  std::string wire = FormatRequest(request);
  size_t host_line = std::string("Host: example.com\r\n").size();
  EXPECT_EQ(request.WireSize() + host_line, wire.size());
}

TEST(Wire, RequestRoundTrip) {
  HttpRequest request;
  request.method = HttpMethod::kPost;
  request.url = Url::MustParse("https://wup.browser.qq.com/phone_home");
  request.headers.Add("Content-Type", "application/json");
  request.body = "{\"url\":\"https://x.org/\"}";
  request.headers.Add("Content-Length",
                      std::to_string(request.body.size()));

  auto parsed = ParseRequest(FormatRequest(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, HttpMethod::kPost);
  EXPECT_EQ(parsed->url.Serialize(), request.url.Serialize());
  EXPECT_EQ(parsed->headers.Get("Content-Type"), "application/json");
  EXPECT_EQ(parsed->body, request.body);
  // And the re-render is identical.
  EXPECT_EQ(FormatRequest(*parsed), FormatRequest(request));
}

// ParseRequest rebuilds the URL from the Host header, so the header
// carries the authority, explicit port included.
TEST(Wire, RequestRoundTripKeepsAnExplicitPort) {
  const std::pair<const char*, const char*> cases[] = {
      {"https://a.com:8443/p?q=1", "Host: a.com:8443\r\n"},
      {"http://b.org:8080/", "Host: b.org:8080\r\n"},
      {"http://c.net:443/x", "Host: c.net:443\r\n"},
  };
  for (const auto& [text, host_line] : cases) {
    HttpRequest request;
    request.url = Url::MustParse(text);
    const std::string wire = FormatRequest(request);
    EXPECT_NE(wire.find(host_line), std::string::npos) << text;
    auto parsed = ParseRequest(wire, request.url.scheme() == "https");
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->url.Serialize(), text);
    EXPECT_EQ(FormatRequest(*parsed), wire) << text;
  }
}

TEST(Wire, ResponseRoundTrip) {
  auto response = HttpResponse::Json("{\"ok\":true}");
  auto parsed = ParseResponse(FormatResponse(response));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->headers.Get("Content-Type"), "application/json");
  EXPECT_EQ(parsed->body, "{\"ok\":true}");
  EXPECT_EQ(FormatResponse(*parsed), FormatResponse(response));
}

TEST(Wire, SizedResponseRoundTripKeepsItsLength) {
  // A sized response renders its unheld bytes, so the parsed copy holds
  // the whole body and frames, counts and re-renders identically.
  for (std::string head : {std::string(), std::string("{\"adm\":\"\"}")}) {
    auto sized = HttpResponse::Sized(4321, "application/json", head);
    std::string wire = FormatResponse(sized);
    EXPECT_EQ(wire.size(), sized.WireSize());
    auto parsed = ParseResponse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->status, 200);
    EXPECT_EQ(parsed->body.size(), head.size() + 4321);
    EXPECT_EQ(parsed->body.substr(0, head.size()), head);
    EXPECT_EQ(parsed->sized_bytes, 0u);
    EXPECT_EQ(parsed->headers.entries(), sized.headers.entries());
    EXPECT_EQ(parsed->WireSize(), sized.WireSize());
    EXPECT_EQ(FormatResponse(*parsed), wire);
  }
}

TEST(Wire, ParseRequestRejectsFraming) {
  EXPECT_FALSE(ParseRequest("").has_value());
  EXPECT_FALSE(ParseRequest("GET / HTTP/1.1").has_value());  // no CRLFCRLF
  EXPECT_FALSE(ParseRequest("GET / HTTP/1.1\r\n\r\n").has_value());  // no Host
  EXPECT_FALSE(
      ParseRequest("FETCH / HTTP/1.1\r\nHost: a.com\r\n\r\n").has_value());
  EXPECT_FALSE(
      ParseRequest("GET noslash HTTP/1.1\r\nHost: a.com\r\n\r\n")
          .has_value());
  EXPECT_FALSE(
      ParseRequest("GET / SPDY/9\r\nHost: a.com\r\n\r\n").has_value());
  EXPECT_FALSE(
      ParseRequest("GET / HTTP/1.1\r\nBadHeaderNoColon\r\nHost: a\r\n\r\n")
          .has_value());
  // Body shorter than Content-Length.
  EXPECT_FALSE(ParseRequest("POST / HTTP/1.1\r\nHost: a.com\r\n"
                            "Content-Length: 10\r\n\r\nshort")
                   .has_value());
}

TEST(Wire, ParseResponseRejectsFraming) {
  EXPECT_FALSE(ParseResponse("").has_value());
  EXPECT_FALSE(ParseResponse("HTTP/1.1 999999 X\r\n\r\n").has_value());
  EXPECT_FALSE(ParseResponse("NOTHTTP 200 OK\r\n\r\n").has_value());
  EXPECT_FALSE(
      ParseResponse("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab")
          .has_value());
}

TEST(Wire, SchemeSelection) {
  auto tls = ParseRequest("GET /x HTTP/1.1\r\nHost: a.com\r\n\r\n", true);
  ASSERT_TRUE(tls.has_value());
  EXPECT_EQ(tls->url.scheme(), "https");
  auto plain =
      ParseRequest("GET /x HTTP/1.1\r\nHost: a.com\r\n\r\n", false);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->url.scheme(), "http");
}

// Property: format∘parse∘format is stable for generated requests.
class WireRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WireRoundTrip, Holds) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 663 + 17);
  HttpRequest request;
  request.method =
      rng.NextBool(0.5) ? HttpMethod::kGet : HttpMethod::kPost;
  std::string url = "https://" + rng.NextToken(6) + ".com/" +
                    rng.NextToken(5);
  if (rng.NextBool(0.6)) url += "?" + rng.NextToken(3) + "=" + rng.NextHex(6);
  request.url = Url::MustParse(url);
  int headers = static_cast<int>(rng.NextBelow(5));
  for (int i = 0; i < headers; ++i) {
    request.headers.Add("X-" + rng.NextToken(5), rng.NextToken(10));
  }
  if (request.method == HttpMethod::kPost) {
    request.body = rng.NextToken(rng.NextBelow(64));
    request.headers.Add("Content-Length",
                        std::to_string(request.body.size()));
  }
  auto parsed = ParseRequest(FormatRequest(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(FormatRequest(*parsed), FormatRequest(request));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip, ::testing::Range(0, 30));

}  // namespace
}  // namespace panoptes::net
