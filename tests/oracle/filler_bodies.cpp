#include "oracle/filler_bodies.h"

#include "util/json.h"
#include "util/rng.h"

namespace panoptes::oracle {

std::string FillerBody(std::string_view tag, size_t size) {
  std::string out;
  out.reserve(size);
  std::string unit = std::string(tag) + "|";
  while (out.size() + unit.size() <= size) out += unit;
  out.append(size - out.size(), '.');
  return out;
}

std::optional<net::HttpResponse> MaterializedSubresource(
    const web::Site& site, const net::HttpRequest& request) {
  const std::string_view path = request.url.path();
  if (path == site.landing_url.path()) return std::nullopt;
  for (const auto& resource : site.resources) {
    if (!resource.third_party && resource.url.path() == path) {
      return net::HttpResponse::Ok(FillerBody(path, resource.body_size),
                                   web::ResourceContentType(resource.type));
    }
  }
  return std::nullopt;
}

net::HttpResponse MaterializedThirdParty(
    const web::ThirdPartyService& service, const net::HttpRequest& request) {
  util::Rng rng(util::HashString(request.url.RequestTarget()) ^
                util::HashString(service.domain));
  switch (service.kind) {
    case web::ThirdPartyKind::kAd: {
      util::JsonObject bid;
      bid["id"] = rng.NextHex(16);
      bid["cur"] = "USD";
      bid["price_cpm"] = rng.NextInRange(10, 450) / 100.0;
      bid["adm"] = FillerBody("creative", static_cast<size_t>(
                                              rng.NextInRange(1500, 6000)));
      return net::HttpResponse::Json(util::Json(std::move(bid)).Dump());
    }
    case web::ThirdPartyKind::kAnalytics: {
      net::HttpResponse resp;
      resp.status = 204;
      resp.headers.Set("Content-Length", "0");
      return resp;
    }
    case web::ThirdPartyKind::kSocial:
    case web::ThirdPartyKind::kCdn:
      return net::HttpResponse::Ok(
          FillerBody(request.url.path(),
                     static_cast<size_t>(rng.NextInRange(30'000, 150'000))),
          "application/javascript");
    case web::ThirdPartyKind::kFont:
      return net::HttpResponse::Ok(
          FillerBody(request.url.path(),
                     static_cast<size_t>(rng.NextInRange(20'000, 80'000))),
          "font/woff2");
  }
  return net::HttpResponse::NotFound();
}

}  // namespace panoptes::oracle
