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

WebPlan PlanWeb(const World& world, net::HostTable& table,
                std::vector<net::IpAllocator>& origin_blocks,
                net::IpAllocator& thirdparty_block) {
  WebPlan plan;
  plan.site_slots.reserve(world.size());
  for (size_t i = 0; i < world.size(); ++i) {
    const Site& site = world.site(i);
    auto& block = origin_blocks[i % origin_blocks.size()];
    plan.site_slots.push_back(
        table.Add(site.hostname, block.Next(), site.supports_h3).slot);
  }
  const auto& pool = ThirdPartyPool();
  plan.service_slots.reserve(pool.size());
  for (const auto& service : pool) {
    plan.service_slots.push_back(
        table
            .Add(service.request_host, thirdparty_block.Next(),
                 /*supports_h3=*/true)
            .slot);
  }
  return plan;
}

void BindWeb(const std::shared_ptr<const World>& world, const WebPlan& plan,
             net::Network& network, obs::JobTelemetry* telemetry) {
  for (size_t i = 0; i < plan.site_slots.size(); ++i) {
    network.Bind(plan.site_slots[i],
                 std::make_shared<OriginServer>(world, i, telemetry));
  }
  const auto& pool = ThirdPartyPool();
  for (size_t k = 0; k < plan.service_slots.size(); ++k) {
    network.Bind(plan.service_slots[k],
                 std::make_shared<ThirdPartyServer>(pool[k], telemetry));
  }
}

}  // namespace panoptes::web
