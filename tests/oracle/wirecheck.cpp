#include "oracle/wirecheck.h"

#include "oracle/wire.h"

namespace panoptes::proxy {

void WireCheckAddon::OnRequest(Flow& flow, net::HttpRequest& request) {
  (void)flow;
  ++checked_;
  std::string wire = net::FormatRequest(request);
  auto reparsed = net::ParseRequest(wire, request.url.scheme() == "https");
  bool ok = reparsed.has_value();
  if (ok) {
    ok = net::FormatRequest(*reparsed) == wire &&
         reparsed->url == request.url &&
         reparsed->body == request.body;
  }
  if (!ok) {
    ++mismatches_;
    if (mismatch_log_.size() < 16) {
      mismatch_log_.push_back(request.Summary());
    }
  }
}

}  // namespace panoptes::proxy
