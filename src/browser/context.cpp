#include "browser/context.h"

#include "util/strings.h"
#include "util/uuid.h"

namespace panoptes::browser {

namespace {

std::string DohProviderHost(DohProvider provider) {
  switch (provider) {
    case DohProvider::kCloudflare: return "cloudflare-dns.com";
    case DohProvider::kGoogle: return "dns.google";
    case DohProvider::kNone: return {};
  }
  return {};
}

}  // namespace

BrowserContext::BrowserContext(const BrowserSpec* spec,
                               device::AndroidDevice* device,
                               device::InstalledApp* app,
                               device::NetworkStack* netstack,
                               net::Network* network, util::SimClock* clock,
                               uint64_t seed)
    : spec_(spec),
      device_(device),
      app_(app),
      netstack_(netstack),
      network_(network),
      clock_(clock),
      rng_(seed) {
  interceptor_ = MakeInterceptor(static_cast<int>(spec->instrumentation),
                                 rng_.NextU64());
  stub_resolver_ = std::make_unique<net::StubResolver>(&network->zone());
  resolver_ = stub_resolver_.get();

  if (spec->doh != DohProvider::kNone) {
    std::string provider = DohProviderHost(spec->doh);
    // The DoH query itself is a native HTTPS request by the browser
    // app; its own hostname bootstraps through the stub resolver.
    auto transport = [this](std::string_view query_url)
        -> std::optional<std::string> {
      net::HttpRequest request;
      request.method = net::HttpMethod::kGet;
      request.url = net::Url::MustParse(query_url);
      request.headers.Set("Accept", "application/dns-json");
      request.headers.Set("User-Agent", spec_->user_agent);
      device::SendContext send_ctx;
      send_ctx.app = app_;
      send_ctx.resolver = stub_resolver_.get();
      send_ctx.wants_h3 = spec_->supports_h3;
      ++counters_.native_requests;
      auto outcome = netstack_->Send(std::move(request), send_ctx);
      if (!outcome.ok) {
        ++counters_.native_failures;
        return std::nullopt;
      }
      return outcome.response.body;
    };
    doh_resolver_ =
        std::make_unique<net::DohResolver>(provider, std::move(transport));
    resolver_ = doh_resolver_.get();
  }
}

device::SendOutcome BrowserContext::SendEngine(net::HttpRequest request,
                                               uint64_t chain_id,
                                               uint32_t redirect_hop) {
  request.headers.Set("User-Agent", spec_->user_agent);
  interceptor_->InterceptEngineRequest(request);
  device::SendContext send_ctx;
  send_ctx.app = app_;
  send_ctx.resolver = resolver_;
  send_ctx.wants_h3 = spec_->supports_h3;
  send_ctx.chain_id = chain_id;
  send_ctx.redirect_hop = redirect_hop;
  ++counters_.engine_requests;
  auto outcome = netstack_->Send(std::move(request), send_ctx);
  if (!outcome.ok) ++counters_.engine_failures;
  return outcome;
}

device::SendOutcome BrowserContext::SendNative(net::HttpRequest request) {
  request.headers.Set("User-Agent", spec_->user_agent);
  device::SendContext send_ctx;
  send_ctx.app = app_;
  send_ctx.resolver = resolver_;
  send_ctx.wants_h3 = spec_->supports_h3;
  ++counters_.native_requests;
  auto outcome = netstack_->Send(std::move(request), send_ctx);
  if (!outcome.ok) ++counters_.native_failures;
  return outcome;
}

std::string BrowserContext::EnsureStoredId(std::string_view key,
                                           size_t hex_length) {
  if (auto existing = app_->storage.Get(key)) return *existing;
  std::string value = hex_length == 0 ? util::GenerateUuid(rng_)
                                      : rng_.NextHex(hex_length);
  app_->storage.Put(key, value);
  return value;
}

void BrowserContext::AttachPiiParams(net::Url& url) const {
  const auto& pii = spec_->pii;
  const auto& profile = device_->profile();
  if (pii.device_type) url.AddQueryParam("devtype", profile.device_type);
  if (pii.manufacturer) url.AddQueryParam("manuf", profile.manufacturer);
  if (pii.timezone) url.AddQueryParam("tz", profile.timezone);
  if (pii.resolution) {
    url.AddQueryParam("res", std::to_string(profile.screen_width) + "x" +
                                 std::to_string(profile.screen_height));
  }
  if (pii.local_ip) url.AddQueryParam("lip", profile.local_ip.ToString());
  if (pii.dpi) url.AddQueryParam("dpi", std::to_string(profile.dpi));
  if (pii.rooted) {
    url.AddQueryParam("rooted", profile.rooted ? "true" : "false");
  }
  if (pii.locale) url.AddQueryParam("locale", profile.locale);
  if (pii.country) url.AddQueryParam("country", profile.country);
  if (pii.location) {
    url.AddQueryParam("lat", util::FormatDouble(profile.latitude, 4));
    url.AddQueryParam("lon", util::FormatDouble(profile.longitude, 4));
  }
  if (pii.connection_type) {
    url.AddQueryParam("conn", profile.network_metering);
  }
  if (pii.network_type) url.AddQueryParam("net", profile.connection_type);
}

void BrowserContext::AttachPiiJson(util::JsonObject& object) const {
  const auto& pii = spec_->pii;
  const auto& profile = device_->profile();
  if (pii.device_type) object["deviceType"] = profile.device_type;
  if (pii.manufacturer) object["deviceVendor"] = profile.manufacturer;
  if (pii.timezone) object["timezone"] = profile.timezone;
  if (pii.resolution) {
    object["deviceScreenWidth"] = profile.screen_width;
    object["deviceScreenHeight"] = profile.screen_height;
  }
  if (pii.local_ip) object["localIp"] = profile.local_ip.ToString();
  if (pii.dpi) object["dpi"] = profile.dpi;
  if (pii.rooted) object["rooted"] = profile.rooted;
  if (pii.locale) object["languageCode"] = profile.locale;
  if (pii.country) object["countryCode"] = profile.country;
  if (pii.location) {
    object["latitude"] = profile.latitude;
    object["longitude"] = profile.longitude;
  }
  if (pii.connection_type) object["metering"] = profile.network_metering;
  if (pii.network_type) object["connectionType"] = profile.connection_type;
}

}  // namespace panoptes::browser
