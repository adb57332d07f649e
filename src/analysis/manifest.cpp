#include "analysis/manifest.h"

#include "analysis/historyleak.h"
#include "analysis/pii.h"
#include "analysis/stats.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"
#include "util/json.h"

namespace panoptes::analysis {

namespace {

std::string_view ModeName(ManifestMode mode) {
  return mode == ManifestMode::kCrawl ? "crawl" : "idle";
}

std::optional<ManifestMode> ParseMode(std::string_view name) {
  if (name == "crawl") return ManifestMode::kCrawl;
  if (name == "idle") return ManifestMode::kIdle;
  return std::nullopt;
}

}  // namespace

std::optional<Manifest> Manifest::FromJson(std::string_view text) {
  auto json = util::Json::Parse(text);
  if (!json || !json->is_object()) return std::nullopt;

  Manifest manifest;
  if (const auto* seed = json->Find("seed");
      seed != nullptr && seed->is_number()) {
    manifest.seed = static_cast<uint64_t>(seed->as_number());
  }
  if (const auto* popular = json->Find("popular_sites");
      popular != nullptr && popular->is_number()) {
    manifest.popular_sites = static_cast<int>(popular->as_number());
  }
  if (const auto* sensitive = json->Find("sensitive_sites");
      sensitive != nullptr && sensitive->is_number()) {
    manifest.sensitive_sites = static_cast<int>(sensitive->as_number());
  }
  if (manifest.popular_sites < 0 || manifest.sensitive_sites < 0 ||
      manifest.popular_sites + manifest.sensitive_sites == 0) {
    return std::nullopt;
  }

  const auto* entries = json->Find("entries");
  if (entries == nullptr || !entries->is_array() ||
      entries->as_array().empty()) {
    return std::nullopt;
  }
  for (const auto& item : entries->as_array()) {
    if (!item.is_object()) return std::nullopt;
    ManifestEntry entry;
    const auto* name = item.Find("browser");
    if (name == nullptr || !name->is_string()) return std::nullopt;
    entry.browser = name->as_string();
    if (browser::FindSpec(entry.browser) == nullptr) return std::nullopt;

    if (const auto* mode = item.Find("mode");
        mode != nullptr && mode->is_string()) {
      auto parsed = ParseMode(mode->as_string());
      if (!parsed) return std::nullopt;
      entry.mode = *parsed;
    }
    if (const auto* incognito = item.Find("incognito");
        incognito != nullptr && incognito->is_bool()) {
      entry.incognito = incognito->as_bool();
    }
    if (const auto* minutes = item.Find("idle_minutes");
        minutes != nullptr && minutes->is_number()) {
      entry.idle_minutes = static_cast<int64_t>(minutes->as_number());
      if (entry.idle_minutes <= 0) return std::nullopt;
    }
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

std::string Manifest::ToJson() const {
  util::JsonObject root;
  root["seed"] = static_cast<int64_t>(seed);
  root["popular_sites"] = popular_sites;
  root["sensitive_sites"] = sensitive_sites;
  util::JsonArray entry_array;
  for (const auto& entry : entries) {
    util::JsonObject object;
    object["browser"] = entry.browser;
    object["mode"] = std::string(ModeName(entry.mode));
    object["incognito"] = entry.incognito;
    if (entry.mode == ManifestMode::kIdle) {
      object["idle_minutes"] = entry.idle_minutes;
    }
    entry_array.push_back(util::Json(std::move(object)));
  }
  root["entries"] = std::move(entry_array);
  return util::Json(std::move(root)).Dump();
}

std::string ManifestResult::ToJson() const {
  util::JsonArray array;
  for (const auto& result : entries) {
    util::JsonObject object;
    object["browser"] = result.entry.browser;
    object["mode"] = std::string(ModeName(result.entry.mode));
    object["incognito_requested"] = result.entry.incognito;
    object["incognito_effective"] = result.incognito_effective;
    object["engine_requests"] = static_cast<int64_t>(result.engine_requests);
    object["native_requests"] = static_cast<int64_t>(result.native_requests);
    object["native_ratio"] = result.native_ratio;
    object["full_url_leak_destinations"] =
        static_cast<int64_t>(result.full_url_leak_destinations);
    object["host_only_leak_destinations"] =
        static_cast<int64_t>(result.host_only_leak_destinations);
    object["pii_fields"] = static_cast<int64_t>(result.pii_fields);
    array.push_back(util::Json(std::move(object)));
  }
  util::JsonObject root;
  root["results"] = std::move(array);
  return util::Json(std::move(root)).Dump();
}

ManifestResult RunManifest(const Manifest& manifest) {
  core::FrameworkOptions options;
  options.seed = manifest.seed;
  options.catalog.popular_count = manifest.popular_sites;
  options.catalog.sensitive_count = manifest.sensitive_sites;
  core::Framework framework(options);

  std::vector<const web::Site*> sites;
  std::vector<net::Url> visited;
  for (const auto& site : framework.catalog().sites()) {
    sites.push_back(&site);
    visited.push_back(site.landing_url);
  }
  HistoryLeakDetector detector(visited);
  PiiScanner scanner(framework.device().profile());

  ManifestResult result;
  for (const auto& entry : manifest.entries) {
    const auto* spec = browser::FindSpec(entry.browser);
    ManifestEntryResult entry_result;
    entry_result.entry = entry;

    if (entry.mode == ManifestMode::kCrawl) {
      core::CrawlOptions crawl_options;
      crawl_options.incognito = entry.incognito;
      auto crawl = core::RunCrawl(framework, *spec, sites, crawl_options);
      entry_result.incognito_effective = crawl.incognito_effective;
      entry_result.engine_requests = crawl.engine_flows->size();
      entry_result.native_requests = crawl.native_flows->size();
      entry_result.native_ratio = crawl.NativeRatio();
      for (const auto& side : crawl.Sides()) {
        for (const auto& leak :
             detector.Scan(side.flows, side.index, side.engine)) {
          if (leak.granularity == LeakGranularity::kFullUrl) {
            ++entry_result.full_url_leak_destinations;
          } else {
            ++entry_result.host_only_leak_destinations;
          }
        }
      }
      entry_result.pii_fields = scanner.Scan(*crawl.native_index).LeakCount();
    } else {
      core::IdleOptions idle_options;
      idle_options.duration = util::Duration::Minutes(entry.idle_minutes);
      auto idle = core::RunIdle(framework, *spec, idle_options);
      entry_result.native_requests = idle.native_flows->size();
      entry_result.native_ratio = 1.0;  // idle traffic is all native
      entry_result.pii_fields = scanner.Scan(*idle.native_index).LeakCount();
    }
    result.entries.push_back(std::move(entry_result));
  }
  return result;
}

}  // namespace panoptes::analysis
