// HttpHeaders + HTTP message tests. Case-insensitive header handling is
// load-bearing: the taint filter must find "X-Panoptes-Taint" however
// it is capitalised, and must strip every copy.
#include <gtest/gtest.h>

#include "net/headers.h"
#include "net/http.h"

namespace panoptes::net {
namespace {

TEST(Headers, AddGetCaseInsensitive) {
  HttpHeaders headers;
  headers.Add("X-Panoptes-Taint", "abc");
  EXPECT_EQ(headers.Get("x-panoptes-taint"), "abc");
  EXPECT_EQ(headers.Get("X-PANOPTES-TAINT"), "abc");
  EXPECT_TRUE(headers.Has("x-Panoptes-Taint"));
  EXPECT_FALSE(headers.Has("x-other"));
}

TEST(Headers, GetReturnsFirst) {
  HttpHeaders headers;
  headers.Add("Accept", "a");
  headers.Add("accept", "b");
  EXPECT_EQ(headers.Get("ACCEPT"), "a");
  EXPECT_EQ(headers.size(), 2u);
}

TEST(Headers, SetReplacesAllOccurrences) {
  HttpHeaders headers;
  headers.Add("Cookie", "a");
  headers.Add("cookie", "b");
  headers.Set("COOKIE", "c");
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.Get("cookie"), "c");
}

TEST(Headers, SetAppendsWhenMissing) {
  HttpHeaders headers;
  headers.Set("User-Agent", "ua");
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.Get("user-agent"), "ua");
}

TEST(Headers, RemoveAllOccurrencesCountsThem) {
  HttpHeaders headers;
  headers.Add("x-panoptes-taint", "1");
  headers.Add("Accept", "a");
  headers.Add("X-Panoptes-Taint", "2");
  EXPECT_EQ(headers.Remove("X-PANOPTES-taint"), 2u);
  EXPECT_FALSE(headers.Has("x-panoptes-taint"));
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.Remove("gone"), 0u);
}

TEST(Headers, TakeReturnsTheFirstValueAndRemovesEveryOccurrence) {
  HttpHeaders headers;
  headers.Add("x-panoptes-taint", "1");
  headers.Add("Accept", "a");
  headers.Add("X-Panoptes-Taint", "2");
  headers.Add("Cookie", "c");
  EXPECT_EQ(headers.Take("X-PANOPTES-taint"), "1");
  const std::vector<HttpHeaders::Entry> rest = {{"Accept", "a"},
                                                {"Cookie", "c"}};
  EXPECT_EQ(headers.entries(), rest);
  EXPECT_EQ(headers.Take("x-panoptes-taint"), std::nullopt);
  EXPECT_EQ(headers.entries(), rest);
}

TEST(Headers, PreservesInsertionOrder) {
  HttpHeaders headers;
  headers.Add("A", "1");
  headers.Add("B", "2");
  headers.Add("C", "3");
  ASSERT_EQ(headers.entries().size(), 3u);
  EXPECT_EQ(headers.entries()[0].first, "A");
  EXPECT_EQ(headers.entries()[2].first, "C");
}

TEST(Headers, WireSize) {
  HttpHeaders headers;
  headers.Add("A", "bc");  // "A: bc\r\n" = 7 bytes
  EXPECT_EQ(headers.WireSize(), 7u);
}

TEST(HttpMessages, MethodNames) {
  EXPECT_EQ(MethodName(HttpMethod::kGet), "GET");
  EXPECT_EQ(MethodName(HttpMethod::kPost), "POST");
  EXPECT_EQ(ParseMethod("POST"), HttpMethod::kPost);
  EXPECT_EQ(ParseMethod("DELETE"), HttpMethod::kDelete);
  EXPECT_FALSE(ParseMethod("PATCHY").has_value());
}

TEST(HttpMessages, VersionNames) {
  EXPECT_EQ(VersionName(HttpVersion::kHttp11), "HTTP/1.1");
  EXPECT_EQ(VersionName(HttpVersion::kHttp3), "h3");
}

TEST(HttpMessages, RequestWireSizeGrowsWithContent) {
  HttpRequest request;
  request.url = Url::MustParse("https://example.com/a");
  size_t base = request.WireSize();
  request.headers.Add("User-Agent", "Mozilla/5.0");
  size_t with_header = request.WireSize();
  EXPECT_GT(with_header, base);
  request.body = std::string(100, 'x');
  EXPECT_EQ(request.WireSize(), with_header + 100);
}

TEST(HttpMessages, Summary) {
  HttpRequest request;
  request.method = HttpMethod::kPost;
  request.url = Url::MustParse("https://h/p");
  EXPECT_EQ(request.Summary(), "POST https://h/p");
}

TEST(HttpMessages, ResponseFactories) {
  auto ok = HttpResponse::Ok("body", "text/plain");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.headers.Get("Content-Type"), "text/plain");
  EXPECT_EQ(ok.headers.Get("Content-Length"), "4");

  auto json = HttpResponse::Json("{}");
  EXPECT_EQ(json.headers.Get("Content-Type"), "application/json");

  auto missing = HttpResponse::NotFound();
  EXPECT_EQ(missing.status, 404);

  auto err = HttpResponse::Error(502, "bad gateway");
  EXPECT_EQ(err.status, 502);
  EXPECT_EQ(err.body, "bad gateway");
}

TEST(HttpMessages, SizedResponseCountsBytesItDoesNotHold) {
  auto sized = HttpResponse::Sized(70000, "font/woff2");
  EXPECT_EQ(sized.status, 200);
  EXPECT_TRUE(sized.body.empty());
  EXPECT_EQ(sized.sized_bytes, 70000u);
  EXPECT_EQ(sized.headers.Get("Content-Type"), "font/woff2");
  EXPECT_EQ(sized.headers.Get("Content-Length"), "70000");
  // On the wire it is exactly the response with the bytes held.
  auto held = HttpResponse::Ok(std::string(70000, '.'), "font/woff2");
  EXPECT_EQ(sized.WireSize(), held.WireSize());

  auto bid = HttpResponse::Sized(1500, "application/json", "{\"adm\":\"\"}");
  EXPECT_EQ(bid.body, "{\"adm\":\"\"}");
  EXPECT_EQ(bid.headers.Get("Content-Length"), "1510");
  EXPECT_EQ(bid.WireSize(),
            HttpResponse::Json(std::string(1510, '.')).WireSize());
}

TEST(HttpMessages, StatusReasons) {
  EXPECT_EQ(StatusReason(200), "OK");
  EXPECT_EQ(StatusReason(204), "No Content");
  EXPECT_EQ(StatusReason(451), "Unavailable For Legal Reasons");
  EXPECT_EQ(StatusReason(999), "Unknown");
}

}  // namespace
}  // namespace panoptes::net
