// The crawl dataset: 500 Tranco-style popular sites plus 500 sensitive
// sites (society / religion / sexuality / health, as selected from the
// Curlie directory in the paper), all generated deterministically.
// web/world.h wraps a catalog for installation into the network fabric.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"
#include "web/site.h"
#include "web/sitegen.h"

namespace panoptes::web {

struct CatalogOptions {
  int popular_count = 500;
  int sensitive_count = 500;  // split evenly across the four categories
  SiteGenOptions sitegen;

  bool operator==(const CatalogOptions&) const = default;
};

class SiteCatalog {
 public:
  // Generates the dataset from one seed.
  static SiteCatalog Generate(uint64_t seed, const CatalogOptions& options = {});

  // Wraps an externally built site vector (e.g. loaded from a site
  // list file) into a catalog.
  static SiteCatalog FromSites(std::vector<Site> sites);

  const std::vector<Site>& sites() const { return sites_; }

  const Site* FindByHost(std::string_view hostname) const;

  std::vector<const Site*> SitesInCategory(SiteCategory category) const;

  // All popular sites, in rank order.
  std::vector<const Site*> PopularSites() const;
  // All sensitive-category sites.
  std::vector<const Site*> SensitiveSites() const;

 private:
  std::vector<Site> sites_;
};

}  // namespace panoptes::web
