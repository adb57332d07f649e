#include "web/world.h"

#include "web/origin_server.h"
#include "web/sitegen.h"
#include "web/thirdparty.h"

namespace panoptes::web {

World::World(SiteCatalog catalog, std::optional<Identity> identity)
    : catalog_(std::move(catalog)), identity_(std::move(identity)) {
  landing_html_.reserve(catalog_.sites().size());
  for (const auto& site : catalog_.sites()) {
    landing_html_.push_back(RenderLandingHtml(site));
  }
}

std::shared_ptr<const World> World::Build(uint64_t seed,
                                          const CatalogOptions& options) {
  return std::shared_ptr<const World>(new World(
      SiteCatalog::Generate(seed, options), Identity{seed, options}));
}

std::shared_ptr<const World> World::FromSites(std::vector<Site> sites) {
  return std::shared_ptr<const World>(
      new World(SiteCatalog::FromSites(std::move(sites)), std::nullopt));
}

bool World::Matches(uint64_t seed, const CatalogOptions& options) const {
  return identity_.has_value() && identity_->seed == seed &&
         identity_->options == options;
}

void InstallWeb(const std::shared_ptr<const World>& world,
                net::Network& network,
                std::vector<net::IpAllocator>& origin_blocks,
                net::IpAllocator& thirdparty_block) {
  for (size_t i = 0; i < world->size(); ++i) {
    const Site& site = world->site(i);
    auto& block = origin_blocks[i % origin_blocks.size()];
    network.Host(site.hostname, block.Next(),
                 std::make_shared<OriginServer>(world, i), site.supports_h3);
  }
  for (const auto& service : ThirdPartyPool()) {
    network.Host(service.request_host, thirdparty_block.Next(),
                 std::make_shared<ThirdPartyServer>(service),
                 /*supports_h3=*/true);
  }
}

}  // namespace panoptes::web
