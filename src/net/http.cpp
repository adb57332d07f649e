#include "net/http.h"

namespace panoptes::net {

std::string_view MethodName(HttpMethod method) {
  switch (method) {
    case HttpMethod::kGet: return "GET";
    case HttpMethod::kPost: return "POST";
    case HttpMethod::kPut: return "PUT";
    case HttpMethod::kHead: return "HEAD";
    case HttpMethod::kOptions: return "OPTIONS";
    case HttpMethod::kDelete: return "DELETE";
  }
  return "GET";
}

std::optional<HttpMethod> ParseMethod(std::string_view name) {
  if (name == "GET") return HttpMethod::kGet;
  if (name == "POST") return HttpMethod::kPost;
  if (name == "PUT") return HttpMethod::kPut;
  if (name == "HEAD") return HttpMethod::kHead;
  if (name == "OPTIONS") return HttpMethod::kOptions;
  if (name == "DELETE") return HttpMethod::kDelete;
  return std::nullopt;
}

std::string_view VersionName(HttpVersion version) {
  switch (version) {
    case HttpVersion::kHttp11: return "HTTP/1.1";
    case HttpVersion::kHttp2: return "h2";
    case HttpVersion::kHttp3: return "h3";
  }
  return "HTTP/1.1";
}

size_t HttpRequest::WireSize() const {
  // "METHOD target HTTP/1.1\r\n" + headers + blank line + body.
  const size_t target = url.path().size() +
                        (url.query().empty() ? 0 : 1 + url.query().size());
  return MethodName(method).size() + 1 + target + 11 + headers.WireSize() +
         2 + body.size();
}

std::string HttpRequest::Summary() const {
  return std::string(MethodName(method)) + " " + url.Serialize();
}

size_t HttpResponse::WireSize() const {
  // "HTTP/1.1 200 OK\r\n" + headers + blank line + body.
  return 9 + 4 + StatusReason(status).size() + 2 + headers.WireSize() + 2 +
         body.size() + sized_bytes;
}

HttpResponse HttpResponse::Ok(std::string body,
                              std::string_view content_type) {
  return Sized(0, content_type, std::move(body));
}

HttpResponse HttpResponse::Sized(size_t length, std::string_view content_type,
                                 std::string head) {
  HttpResponse resp;
  resp.status = 200;
  resp.headers.Reserve(2);
  resp.headers.Add("Content-Type", content_type);
  resp.headers.Add("Content-Length", std::to_string(head.size() + length));
  resp.body = std::move(head);
  resp.sized_bytes = length;
  return resp;
}

HttpResponse HttpResponse::Json(std::string body) {
  return Ok(std::move(body), "application/json");
}

HttpResponse HttpResponse::NotFound() {
  return Error(404, "not found");
}

HttpResponse HttpResponse::Redirect(std::string location, int status) {
  HttpResponse resp;
  resp.status = status;
  resp.headers.Reserve(2);
  resp.headers.Add("Location", location);
  resp.headers.Add("Content-Length", "0");
  return resp;
}

HttpResponse HttpResponse::Error(int status, std::string_view reason) {
  HttpResponse resp;
  resp.status = status;
  resp.headers.Reserve(2);
  resp.headers.Add("Content-Type", "text/plain");
  resp.body = std::string(reason);
  resp.headers.Add("Content-Length", std::to_string(resp.body.size()));
  return resp;
}

std::string_view StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 303: return "See Other";
    case 307: return "Temporary Redirect";
    case 308: return "Permanent Redirect";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 451: return "Unavailable For Legal Reasons";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    default: return "Unknown";
  }
}

}  // namespace panoptes::net
