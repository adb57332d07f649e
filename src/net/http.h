// HTTP message model: requests, responses, versions and wire-size
// accounting (Fig 4 reports traffic volume, so byte counts matter).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "net/headers.h"
#include "net/url.h"

namespace panoptes::net {

enum class HttpMethod { kGet, kPost, kPut, kHead, kOptions, kDelete };

std::string_view MethodName(HttpMethod method);
std::optional<HttpMethod> ParseMethod(std::string_view name);

// The protocol a flow was carried over. HTTP/3 matters because the
// paper's proxy blocks QUIC and relies on browsers falling back.
enum class HttpVersion { kHttp11, kHttp2, kHttp3 };

std::string_view VersionName(HttpVersion version);

struct HttpRequest {
  HttpMethod method = HttpMethod::kGet;
  Url url;
  HttpHeaders headers;
  std::string body;

  // Approximate on-the-wire size in bytes: request line + headers +
  // body. Used for the Fig 4 volume accounting.
  size_t WireSize() const;

  // "GET https://example.org/ HTTP/1.1" style summary for logs.
  std::string Summary() const;
};

struct HttpResponse {
  int status = 200;
  HttpHeaders headers;
  // The body bytes a client reads.
  std::string body;
  // Further body bytes that are counted on the wire but never held:
  // filler nobody reads (subresources, scripts, fonts, ad creatives).
  // WireSize() and Content-Length include them; FormatResponse writes
  // them out after `body`.
  size_t sized_bytes = 0;

  size_t WireSize() const;

  static HttpResponse Ok(std::string body,
                         std::string_view content_type = "text/html");
  // A 200 whose body is `head` followed by `length` sized bytes.
  static HttpResponse Sized(size_t length, std::string_view content_type,
                            std::string head = {});
  static HttpResponse Json(std::string body);
  static HttpResponse NotFound();
  static HttpResponse Error(int status, std::string_view reason);
  // 3xx with a Location header and an empty body. `status` must be a
  // redirect code (301/302/303/307/308); `location` should be an
  // absolute URL — the engine's redirect follower does not resolve
  // relative references.
  static HttpResponse Redirect(std::string location, int status = 302);
};

std::string_view StatusReason(int status);

}  // namespace panoptes::net
