// HTTP/1.1 wire codec: render and parse the exact bytes a transparent
// proxy sees on the socket. The in-process fabric exchanges message
// objects for speed, but the codec keeps the model honest — WireSize()
// must equal the length of the rendered bytes, and a round trip
// through the codec must preserve every header and the body. Production
// code never renders bytes, so the codec lives with the tests that use
// it as an oracle.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "net/http.h"

namespace panoptes::net {

// "GET /path?q=1 HTTP/1.1\r\nHost: example.com\r\n...\r\n\r\n<body>".
// The Host header is derived from the URL when not already present.
std::string FormatRequest(const HttpRequest& request);

// "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>". A response's sized bytes
// are rendered as '.' after its body, so parsing the result gives a
// response of the same length and WireSize() that holds every byte.
std::string FormatResponse(const HttpResponse& response);

// Parses one complete request. The URL is reassembled from the request
// target and the Host header (scheme chosen by `assume_tls`). Returns
// nullopt on any framing violation (bad request line, missing Host,
// malformed header line, body shorter than Content-Length).
std::optional<HttpRequest> ParseRequest(std::string_view wire,
                                        bool assume_tls = true);

std::optional<HttpResponse> ParseResponse(std::string_view wire);

}  // namespace panoptes::net
