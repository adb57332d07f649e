#include "web/sitegen.h"

#include <algorithm>
#include <cmath>

#include "web/thirdparty.h"

namespace panoptes::web {

namespace {

ResourceType PickFirstPartyType(util::Rng& rng) {
  double roll = rng.NextDouble();
  if (roll < 0.35) return ResourceType::kScript;
  if (roll < 0.55) return ResourceType::kImage;
  if (roll < 0.75) return ResourceType::kStylesheet;
  return ResourceType::kXhr;
}

size_t TypicalSize(ResourceType type, util::Rng& rng) {
  switch (type) {
    case ResourceType::kDocument:
      return static_cast<size_t>(rng.NextInRange(18'000, 90'000));
    case ResourceType::kScript:
      return static_cast<size_t>(rng.NextInRange(25'000, 280'000));
    case ResourceType::kStylesheet:
      return static_cast<size_t>(rng.NextInRange(4'000, 60'000));
    case ResourceType::kImage:
      return static_cast<size_t>(rng.NextInRange(8'000, 220'000));
    case ResourceType::kXhr:
      return static_cast<size_t>(rng.NextInRange(500, 12'000));
  }
  return 1024;
}

std::string_view PathPrefix(ResourceType type) {
  switch (type) {
    case ResourceType::kDocument: return "/";
    case ResourceType::kScript: return "/static/js/";
    case ResourceType::kStylesheet: return "/static/css/";
    case ResourceType::kImage: return "/static/img/";
    case ResourceType::kXhr: return "/api/";
  }
  return "/";
}

std::string_view Extension(ResourceType type) {
  switch (type) {
    case ResourceType::kDocument: return "";
    case ResourceType::kScript: return ".js";
    case ResourceType::kStylesheet: return ".css";
    case ResourceType::kImage: return ".png";
    case ResourceType::kXhr: return ".json";
  }
  return "";
}

// Weighted pick of a third-party service.
const ThirdPartyService& PickThirdParty(util::Rng& rng) {
  const auto& pool = ThirdPartyPool();
  double total = 0;
  for (const auto& service : pool) total += service.weight;
  double roll = rng.NextDouble() * total;
  for (const auto& service : pool) {
    roll -= service.weight;
    if (roll <= 0) return service;
  }
  return pool.back();
}

std::string ThirdPartyPath(const ThirdPartyService& service, util::Rng& rng) {
  switch (service.kind) {
    case ThirdPartyKind::kAd:
      return "/bid?slot=" + rng.NextToken(6) + "&w=300&h=250";
    case ThirdPartyKind::kAnalytics:
      return "/collect?tid=UA-" + std::to_string(rng.NextInRange(10000, 99999)) +
             "&t=pageview";
    case ThirdPartyKind::kSocial:
      return "/widget.js";
    case ThirdPartyKind::kCdn:
      return "/lib/" + rng.NextToken(8) + ".min.js";
    case ThirdPartyKind::kFont:
      return "/s/font-" + rng.NextToken(5) + ".woff2";
  }
  return "/";
}

ResourceType ThirdPartyType(const ThirdPartyService& service) {
  switch (service.kind) {
    case ThirdPartyKind::kAd: return ResourceType::kXhr;
    case ThirdPartyKind::kAnalytics: return ResourceType::kXhr;
    case ThirdPartyKind::kSocial: return ResourceType::kScript;
    case ThirdPartyKind::kCdn: return ResourceType::kScript;
    case ThirdPartyKind::kFont: return ResourceType::kImage;
  }
  return ResourceType::kXhr;
}

// Salt separating the scenario-overlay rng stream from every other
// HashString-derived stream in the codebase.
constexpr uint64_t kScenarioSalt = 0x75696473636e726fULL;  // "uidscnro"

// Applies the tracking-scenario overlay. Runs after the main
// generation on a hostname-derived stream — never on the site rng — so
// the legacy structure is byte-identical whether or not any scenario
// knob is on, and one knob's outcome never re-deals another's roll
// (every decision is drawn unconditionally, in fixed order).
void ApplyScenarioOverlay(Site& site, const SiteGenOptions& options) {
  if (options.bounce_fraction <= 0 && options.decoration_fraction <= 0 &&
      options.plain_http_fraction <= 0) {
    return;
  }
  util::Rng rng(util::HashString(site.hostname) ^ kScenarioSalt);
  const bool plain = rng.NextBool(options.plain_http_fraction);
  const bool bounce = rng.NextBool(options.bounce_fraction);
  const bool decorate = rng.NextBool(options.decoration_fraction);
  std::string uid = rng.NextHex(16);
  const int max_hops = std::max(1, options.max_bounce_hops);
  const int hops = static_cast<int>(rng.NextInRange(1, max_hops));

  if (plain) {
    site.plain_http = true;
    site.landing_url = net::Url::MustParse(
        "http://" + site.hostname + site.landing_url.RequestTarget());
    for (auto& resource : site.resources) {
      if (!resource.third_party) {
        resource.url = net::Url::MustParse(
            "http://" + std::string(resource.url.host()) +
            resource.url.RequestTarget());
      }
    }
  }
  if (bounce || decorate) site.smuggle_uid = std::move(uid);
  if (bounce) {
    site.bounce_tracking = true;
    auto trackers = ServicesOfKind(ThirdPartyKind::kAnalytics);
    auto ads = ServicesOfKind(ThirdPartyKind::kAd);
    trackers.insert(trackers.end(), ads.begin(), ads.end());
    for (int i = 0; i < hops; ++i) {
      site.bounce_hosts.push_back(
          trackers[rng.NextBelow(trackers.size())].request_host);
    }
  }
  if (decorate) {
    site.link_decoration = true;
    for (auto& resource : site.resources) {
      if (resource.third_party && resource.ad_related) {
        resource.url.AddQueryParam("pan_uid", site.smuggle_uid);
      }
    }
  }
}

}  // namespace

Site GenerateSite(std::string hostname, SiteCategory category, int rank,
                  util::Rng rng, const SiteGenOptions& options) {
  Site site;
  site.hostname = std::move(hostname);
  site.category = category;
  site.rank = rank;
  site.landing_url = net::Url::MustParse("https://" + site.hostname + "/");
  site.document_size = TypicalSize(ResourceType::kDocument, rng);
  site.supports_h3 = rng.NextBool(options.h3_fraction);

  double mean = IsSensitiveCategory(category)
                    ? options.sensitive_mean_resources
                    : options.popular_mean_resources;
  // Popularity correlates weakly with page weight: top-ranked popular
  // sites are heavier.
  if (category == SiteCategory::kPopular && rank <= 50) mean *= 1.3;

  int count = std::max<int>(
      3, static_cast<int>(std::lround(rng.NextExponential(mean / 2) +
                                      mean / 2)));
  count = std::min(count, 80);

  for (int i = 0; i < count; ++i) {
    Resource resource;
    if (rng.NextBool(options.third_party_fraction)) {
      const auto& service = PickThirdParty(rng);
      resource.type = ThirdPartyType(service);
      resource.url = net::Url::MustParse("https://" + service.request_host +
                                         ThirdPartyPath(service, rng));
      resource.third_party = true;
      resource.ad_related = service.kind == ThirdPartyKind::kAd ||
                            service.kind == ThirdPartyKind::kAnalytics;
    } else {
      resource.type = PickFirstPartyType(rng);
      std::string path = std::string(PathPrefix(resource.type)) +
                         rng.NextToken(10) +
                         std::string(Extension(resource.type));
      resource.url =
          net::Url::MustParse("https://" + site.hostname + path);
    }
    resource.body_size = TypicalSize(resource.type, rng);
    site.resources.push_back(std::move(resource));
  }
  ApplyScenarioOverlay(site, options);
  return site;
}

std::string RenderLandingHtml(const Site& site) {
  std::string html;
  html.reserve(site.document_size + 1024);
  html += "<!doctype html>\n<html>\n<head>\n<title>";
  html += site.hostname;
  html += "</title>\n";
  for (const auto& resource : site.resources) {
    const std::string& url = resource.url.Serialize();
    switch (resource.type) {
      case ResourceType::kScript:
        html += "<script src=\"" + url + "\"></script>\n";
        break;
      case ResourceType::kStylesheet:
        html += "<link rel=\"stylesheet\" href=\"" + url + "\">\n";
        break;
      case ResourceType::kImage:
        html += "<img src=\"" + url + "\">\n";
        break;
      case ResourceType::kXhr:
        // Fetched by an inline loader; the engine recognises the marker.
        html += "<script data-fetch=\"" + url + "\"></script>\n";
        break;
      case ResourceType::kDocument:
        break;
    }
  }
  html += "</head>\n<body>\n";
  // Pad to the generated document size so byte accounting is realistic.
  static constexpr std::string_view kFiller =
      "<p>Lorem ipsum dolor sit amet, consectetur adipiscing elit.</p>\n";
  while (html.size() + kFiller.size() + 16 < site.document_size) {
    html += kFiller;
  }
  html += "</body>\n</html>\n";
  return html;
}

}  // namespace panoptes::web
