// Materialized-body reference servers: the responses the generated
// web served before subresource, script, font and ad-creative bodies
// became sized (net::HttpResponse::Sized). Production code never calls
// these — they exist so the differential tests can check that a sized
// response is, on the wire, exactly the response whose filler bytes
// were synthesized.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "net/http.h"
#include "web/site.h"
#include "web/thirdparty.h"

namespace panoptes::oracle {

// A body of exactly `size` bytes, deterministic in `tag`: repetitions
// of "<tag>|" padded with '.'.
std::string FillerBody(std::string_view tag, size_t size);

// What an origin server answered for a first-party subresource of
// `site`, filler included; nullopt when `request` is not one.
std::optional<net::HttpResponse> MaterializedSubresource(
    const web::Site& site, const net::HttpRequest& request);

// What a third-party server answered for a request other than a
// bounce hop, every body byte included.
net::HttpResponse MaterializedThirdParty(
    const web::ThirdPartyService& service, const net::HttpRequest& request);

}  // namespace panoptes::oracle
