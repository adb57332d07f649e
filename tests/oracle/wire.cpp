#include "oracle/wire.h"

#include "util/strings.h"

namespace panoptes::net {

namespace {

// Splits headers block + body at the first CRLFCRLF; returns false on
// missing terminator.
bool SplitMessage(std::string_view wire, std::string_view& head,
                  std::string_view& body) {
  size_t end = wire.find("\r\n\r\n");
  if (end == std::string_view::npos) return false;
  head = wire.substr(0, end);
  body = wire.substr(end + 4);
  return true;
}

bool ParseHeaderLines(std::string_view head, HttpHeaders& headers) {
  size_t start = 0;
  while (start < head.size()) {
    size_t eol = head.find("\r\n", start);
    std::string_view line = head.substr(
        start, eol == std::string_view::npos ? std::string_view::npos
                                             : eol - start);
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    std::string_view name = line.substr(0, colon);
    std::string_view value = util::Trim(line.substr(colon + 1));
    headers.Add(name, value);
    if (eol == std::string_view::npos) break;
    start = eol + 2;
  }
  return true;
}

}  // namespace

std::string FormatRequest(const HttpRequest& request) {
  std::string out;
  out += MethodName(request.method);
  out += ' ';
  out += request.url.RequestTarget();
  out += " HTTP/1.1\r\n";
  if (!request.headers.Has("Host")) {
    // host[:port]: ParseRequest rebuilds the URL from this header, so
    // an explicit port must travel with it.
    out += "Host: ";
    out += request.url.authority();
    out += "\r\n";
  }
  for (const auto& [name, value] : request.headers.entries()) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

std::string FormatResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    std::string(StatusReason(response.status)) + "\r\n";
  for (const auto& [name, value] : response.headers.entries()) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  out += response.body;
  out.append(response.sized_bytes, '.');
  return out;
}

std::optional<HttpRequest> ParseRequest(std::string_view wire,
                                        bool assume_tls) {
  std::string_view head, body;
  if (!SplitMessage(wire, head, body)) return std::nullopt;

  size_t line_end = head.find("\r\n");
  std::string_view request_line =
      head.substr(0, line_end == std::string_view::npos
                         ? std::string_view::npos
                         : line_end);
  auto parts = util::SplitNonEmpty(request_line, ' ');
  if (parts.size() != 3) return std::nullopt;
  auto method = ParseMethod(parts[0]);
  if (!method) return std::nullopt;
  if (parts[2] != "HTTP/1.1" && parts[2] != "HTTP/1.0") return std::nullopt;
  if (parts[1].empty() || parts[1][0] != '/') return std::nullopt;

  HttpHeaders headers;
  std::string_view header_block =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  if (!header_block.empty() && !ParseHeaderLines(header_block, headers)) {
    return std::nullopt;
  }
  auto host = headers.Get("Host");
  if (!host || host->empty()) return std::nullopt;

  std::string url_text =
      std::string(assume_tls ? "https" : "http") + "://" + *host + parts[1];
  auto url = Url::Parse(url_text);
  if (!url) return std::nullopt;

  HttpRequest request;
  request.method = *method;
  request.url = std::move(*url);
  headers.Remove("Host");  // re-derived on format
  request.headers = std::move(headers);

  if (auto length = request.headers.Get("Content-Length")) {
    auto expected = util::ParseUint(*length);
    if (!expected || body.size() < *expected) return std::nullopt;
    request.body = std::string(body.substr(0, *expected));
  } else {
    request.body = std::string(body);
  }
  return request;
}

std::optional<HttpResponse> ParseResponse(std::string_view wire) {
  std::string_view head, body;
  if (!SplitMessage(wire, head, body)) return std::nullopt;

  size_t line_end = head.find("\r\n");
  std::string_view status_line =
      head.substr(0, line_end == std::string_view::npos
                         ? std::string_view::npos
                         : line_end);
  if (!util::StartsWith(status_line, "HTTP/1.")) return std::nullopt;
  auto parts = util::SplitNonEmpty(status_line, ' ');
  if (parts.size() < 2) return std::nullopt;
  auto status = util::ParseUint(parts[1]);
  if (!status || *status < 100 || *status > 599) return std::nullopt;

  HttpResponse response;
  response.status = static_cast<int>(*status);
  std::string_view header_block =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  if (!header_block.empty() &&
      !ParseHeaderLines(header_block, response.headers)) {
    return std::nullopt;
  }
  if (auto length = response.headers.Get("Content-Length")) {
    auto expected = util::ParseUint(*length);
    if (!expected || body.size() < *expected) return std::nullopt;
    response.body = std::string(body.substr(0, *expected));
  } else {
    response.body = std::string(body);
  }
  return response;
}

}  // namespace panoptes::net
