#include "oracle/per_job_network.h"

#include <vector>

#include "vendors/servers.h"
#include "web/origin_server.h"
#include "web/thirdparty.h"

namespace panoptes::oracle {

namespace {

void InstallWeb(const std::shared_ptr<const web::World>& world,
                net::Network& network,
                std::vector<net::IpAllocator>& origin_blocks,
                net::IpAllocator& thirdparty_block) {
  for (size_t i = 0; i < world->size(); ++i) {
    const web::Site& site = world->site(i);
    auto& block = origin_blocks[i % origin_blocks.size()];
    network.Host(site.hostname, block.Next(),
                 std::make_shared<web::OriginServer>(world, i),
                 site.supports_h3);
  }
  for (const auto& service : web::ThirdPartyPool()) {
    network.Host(service.request_host, thirdparty_block.Next(),
                 std::make_shared<web::ThirdPartyServer>(service),
                 /*supports_h3=*/true);
  }
}

vendors::VendorWorld InstallVendors(net::Network& network,
                                    vendors::GeoPlan& plan) {
  using namespace vendors;
  VendorWorld world;

  for (const auto& spec : TelemetryHosts()) {
    auto server = std::make_shared<TelemetryServer>(spec.hostname);
    network.Host(spec.hostname, plan.Allocator(spec.country).Next(), server,
                 spec.h3);
    world.telemetry.push_back(std::move(server));
  }

  world.sba_yandex = std::make_shared<SbaYandexServer>();
  network.Host("sba.yandex.net", plan.Allocator("RU").Next(),
               world.sba_yandex);

  world.yandex_api = std::make_shared<YandexApiServer>();
  network.Host("api.browser.yandex.ru", plan.Allocator("RU").Next(),
               world.yandex_api);

  world.oleads = std::make_shared<OleadsServer>();
  network.Host("s-odx.oleads.com", plan.Allocator("NO").Next(),
               world.oleads);
  network.Host("s-odx-amer.oleads.com", plan.Allocator("US").Next(),
               world.oleads);

  world.bing = std::make_shared<BingApiServer>();
  network.Host("www.bing.com", plan.Allocator("US").Next(), world.bing,
               /*supports_h3=*/true);

  world.sitecheck = std::make_shared<OperaSitecheckServer>();
  network.Host("sitecheck2.opera.com", plan.Allocator("NO").Next(),
               world.sitecheck);

  world.cloudflare_doh = std::make_shared<DohServer>(&network);
  network.Host("cloudflare-dns.com",
               plan.Allocator("US-ANYCAST-CF").Next(), world.cloudflare_doh,
               /*supports_h3=*/true);

  world.google_doh = std::make_shared<DohServer>(&network);
  network.Host("dns.google", plan.Allocator("US-ANYCAST-GOOG").Next(),
               world.google_doh, /*supports_h3=*/true);

  return world;
}

}  // namespace

PerJobNetwork InstallPerJobNetwork(
    const std::shared_ptr<const web::World>& world, uint64_t seed) {
  PerJobNetwork out;
  out.network = std::make_unique<net::Network>(seed);
  std::vector<net::IpAllocator> origin_blocks = {
      out.geo.Allocator("US-HOSTING"),
      out.geo.Allocator("DE-HOSTING"),
      out.geo.Allocator("NL-HOSTING"),
  };
  InstallWeb(world, *out.network, origin_blocks,
             out.geo.Allocator("US-ADTECH"));
  out.vendors = InstallVendors(*out.network, out.geo);
  return out;
}

}  // namespace panoptes::oracle
