#include "web/origin_server.h"

#include "util/json.h"
#include "util/rng.h"

namespace panoptes::web {

namespace {

// Location for the first hop of `site`'s bounce chain. The remaining
// tracker hosts ride a `hops` parameter and the decorated landing URL
// rides `dest`, so each ThirdPartyServer hop is stateless.
std::string BounceLocation(const Site& site) {
  net::Url dest = site.landing_url;
  dest.AddQueryParam("pan_uid", site.smuggle_uid);
  net::Url loc =
      net::Url::MustParse("https://" + site.bounce_hosts.front() + "/bounce");
  loc.AddQueryParam("uid", site.smuggle_uid);
  std::string rest;
  for (size_t i = 1; i < site.bounce_hosts.size(); ++i) {
    if (!rest.empty()) rest += ',';
    rest += site.bounce_hosts[i];
  }
  if (!rest.empty()) loc.AddQueryParam("hops", rest);
  loc.AddQueryParam("dest", dest.Serialize());
  return loc.Serialize();
}

// Counts the body bytes the generated web's servers allocate: landing
// HTML, bid heads and error bodies. Sized bytes are never allocated, so
// they are not counted.
net::HttpResponse CountMaterialized(net::HttpResponse response,
                                    obs::JobTelemetry* telemetry) {
  if (telemetry != nullptr) {
    telemetry->body_bytes_materialized += response.body.size();
  }
  return response;
}

}  // namespace

OriginServer::OriginServer(std::shared_ptr<const World> world, size_t index,
                           obs::JobTelemetry* telemetry)
    : world_(std::move(world)), index_(index), telemetry_(telemetry) {}

net::HttpResponse OriginServer::Handle(const net::HttpRequest& request,
                                       const net::ConnectionMeta& meta) {
  (void)meta;
  ++hits_;
  return CountMaterialized(Respond(request), telemetry_);
}

net::HttpResponse OriginServer::Respond(
    const net::HttpRequest& request) const {
  const Site& site = world_->site(index_);
  const std::string_view path = request.url.path();
  if (path == site.landing_url.path()) {
    // First-party bounce: a landing hit that doesn't yet carry the
    // decoration parameter is 302'd through the site's tracker hops,
    // which hand the navigation back decorated with ?pan_uid=<uid>.
    if (site.bounce_tracking && !site.bounce_hosts.empty() &&
        !request.url.QueryParam("pan_uid")) {
      return net::HttpResponse::Redirect(BounceLocation(site));
    }
    auto resp = net::HttpResponse::Ok(world_->landing_html(index_));
    // First-party session cookie, deterministic per site. Lets the
    // engine's cookie jar (and incognito's refusal to persist it) be
    // observable in traffic.
    std::string cookie =
        "sid=" +
        std::to_string(util::HashString(site.hostname) % 1000000007ULL) +
        "; Path=/";
    // `Secure` is only valid when the cookie is set over TLS: browsers
    // reject a Secure cookie arriving on plain http, which silently
    // killed sessions on http sites.
    if (site.landing_url.scheme() == "https") cookie += "; Secure";
    resp.headers.Set("Set-Cookie", cookie);
    return resp;
  }
  for (const auto& resource : site.resources) {
    if (!resource.third_party && resource.url.path() == path) {
      return net::HttpResponse::Sized(resource.body_size,
                                      ResourceContentType(resource.type));
    }
  }
  return net::HttpResponse::NotFound();
}

ThirdPartyServer::ThirdPartyServer(ThirdPartyService service,
                                   obs::JobTelemetry* telemetry)
    : service_(std::move(service)), telemetry_(telemetry) {}

net::HttpResponse ThirdPartyServer::Handle(const net::HttpRequest& request,
                                           const net::ConnectionMeta& meta) {
  (void)meta;
  ++hits_;
  return CountMaterialized(Respond(request), telemetry_);
}

net::HttpResponse ThirdPartyServer::Respond(
    const net::HttpRequest& request) const {
  // Bounce-chain hop: drop a tracker cookie and forward the
  // navigation to the next hop, or to the decorated destination when
  // this tracker is the last. Stateless — uid/hops/dest all ride the
  // query string.
  if (request.url.path() == "/bounce") {
    auto uid = request.url.QueryParam("uid");
    auto dest = request.url.QueryParam("dest");
    if (uid && dest) {
      auto hops = request.url.QueryParam("hops");
      std::string location;
      if (hops && !hops->empty()) {
        size_t comma = hops->find(',');
        net::Url next = net::Url::MustParse(
            "https://" + hops->substr(0, comma) + "/bounce");
        next.AddQueryParam("uid", *uid);
        if (comma != std::string::npos) {
          next.AddQueryParam("hops", hops->substr(comma + 1));
        }
        next.AddQueryParam("dest", *dest);
        location = next.Serialize();
      } else {
        location = *dest;
      }
      auto resp = net::HttpResponse::Redirect(std::move(location));
      resp.headers.Set("Set-Cookie", "tuid=" + *uid + "; Path=/; Secure");
      return resp;
    }
    return net::HttpResponse::NotFound();
  }
  // Deterministic size per path so repeated crawls byte-match.
  util::Rng rng(util::HashString(request.url.RequestTarget()) ^
                util::HashString(service_.domain));
  switch (service_.kind) {
    case ThirdPartyKind::kAd: {
      util::JsonObject bid;
      bid["id"] = rng.NextHex(16);
      bid["cur"] = "USD";
      bid["price_cpm"] = rng.NextInRange(10, 450) / 100.0;
      // The creative is sized. Filler needs no JSON escaping, so the bid
      // with an empty `adm` plus the creative's length is exactly as
      // long as the bid with the creative inlined.
      bid["adm"] = "";
      auto creative = static_cast<size_t>(rng.NextInRange(1500, 6000));
      return net::HttpResponse::Sized(creative, "application/json",
                                      util::Json(std::move(bid)).Dump());
    }
    case ThirdPartyKind::kAnalytics: {
      net::HttpResponse resp;
      resp.status = 204;
      resp.headers.Set("Content-Length", "0");
      return resp;
    }
    case ThirdPartyKind::kSocial:
    case ThirdPartyKind::kCdn:
      return net::HttpResponse::Sized(
          static_cast<size_t>(rng.NextInRange(30'000, 150'000)),
          "application/javascript");
    case ThirdPartyKind::kFont:
      return net::HttpResponse::Sized(
          static_cast<size_t>(rng.NextInRange(20'000, 80'000)), "font/woff2");
  }
  return net::HttpResponse::NotFound();
}

}  // namespace panoptes::web
