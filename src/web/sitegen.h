// Deterministic site generation.
//
// Real sites cannot be crawled here, so each catalog entry is expanded
// into a synthetic-but-plausible landing page: a document of realistic
// size referencing first-party assets and a weighted sample of
// third-party embeds (ads, analytics, social, CDNs, fonts). Everything
// derives from a seed, so a catalog regenerates identically.
#pragma once

#include <string>

#include "util/rng.h"
#include "web/site.h"

namespace panoptes::web {

struct SiteGenOptions {
  // Mean number of subresources for popular sites; sensitive-category
  // sites are leaner (blogs, forums, clinics), matching the intuition
  // that niche sites embed less.
  double popular_mean_resources = 26.0;
  double sensitive_mean_resources = 14.0;
  // Probability a given embed slot is third-party.
  double third_party_fraction = 0.45;
  // Fraction of sites that deploy HTTP/3.
  double h3_fraction = 0.35;

  // Tracking-scenario overlay knobs, all off by default. Scenario
  // decisions draw from a hostname-derived rng stream applied AFTER
  // the main generation, so enabling any of them leaves the legacy
  // site structure (sizes, resources, rng stream) byte-identical.
  //
  // Fraction of sites whose landing page 302s through tracker hops
  // before committing, decorated with the site's smuggle uid (the
  // first-party bounce pattern).
  double bounce_fraction = 0.0;
  // Fraction of sites whose ad/analytics embeds carry the smuggle uid
  // as a pan_uid query parameter (link decoration).
  double decoration_fraction = 0.0;
  // Fraction of sites served over plain http (no TLS). Exercises the
  // Secure-cookie handling of OriginServer.
  double plain_http_fraction = 0.0;
  // Upper bound on tracker hops a bouncing site walks through (>= 1).
  int max_bounce_hops = 2;

  bool operator==(const SiteGenOptions&) const = default;
};

// Expands one site. `rng` should be forked per site from the catalog
// seed so generation order doesn't matter.
Site GenerateSite(std::string hostname, SiteCategory category, int rank,
                  util::Rng rng, const SiteGenOptions& options = {});

// Renders the landing-page HTML that the origin server serves and the
// web-engine parser consumes: a skeleton document whose <script>, <link>
// and <img> tags reference every subresource, padded to document_size.
std::string RenderLandingHtml(const Site& site);

}  // namespace panoptes::web
