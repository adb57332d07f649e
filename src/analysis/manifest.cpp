#include "analysis/manifest.h"

#include <limits>

#include "analysis/historyleak.h"
#include "analysis/pii.h"
#include "browser/profiles.h"
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
  // A numeric field that is not an integer in range rejects the
  // manifest; a field that is absent, or not a number, keeps its default.
  auto read = [&](const util::Json& object, const char* key, auto& field) {
    const auto* value = object.Find(key);
    if (value == nullptr || !value->is_number()) return true;
    auto integer = value->Integer<std::remove_reference_t<decltype(field)>>();
    if (integer) field = *integer;
    return integer.has_value();
  };
  if (!read(*json, "seed", manifest.seed) ||
      !read(*json, "popular_sites", manifest.popular_sites) ||
      !read(*json, "sensitive_sites", manifest.sensitive_sites)) {
    return std::nullopt;
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
    // util::Duration::Minutes counts milliseconds in an int64_t.
    if (!read(item, "idle_minutes", entry.idle_minutes) ||
        entry.idle_minutes <= 0 ||
        entry.idle_minutes > std::numeric_limits<int64_t>::max() / 60000) {
      return std::nullopt;
    }
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

std::string Manifest::ToJson() const {
  util::JsonObject root;
  root["seed"] = util::Json::ExactNumber(seed, "seed");
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

ManifestResult RunCampaignManifest(const Manifest& manifest,
                                   core::FleetOptions options) {
  options.base_seed = manifest.seed;
  options.framework.catalog.popular_count = manifest.popular_sites;
  options.framework.catalog.sensitive_count = manifest.sensitive_sites;

  std::vector<core::FleetJob> jobs;
  jobs.reserve(manifest.entries.size());
  for (const auto& entry : manifest.entries) {
    core::FleetJob job;
    job.spec = *browser::FindSpec(entry.browser);
    if (entry.mode == ManifestMode::kIdle) {
      job.kind = core::CampaignKind::kIdle;
      job.idle.duration = util::Duration::Minutes(entry.idle_minutes);
    } else {
      job.kind = entry.incognito ? core::CampaignKind::kIncognitoCrawl
                                 : core::CampaignKind::kCrawl;
    }
    jobs.push_back(std::move(job));
  }
  core::FleetExecutor executor(std::move(options));

  std::vector<net::Url> visited;
  for (const auto& site : executor.testbed()->world()->catalog().sites()) {
    visited.push_back(site.landing_url);
  }
  HistoryLeakDetector detector(std::move(visited));

  // Each worker analyses the job it just ran and drops its capture.
  ManifestResult out;
  out.entries.resize(jobs.size());
  executor.RunEach(jobs, [&](size_t index, core::FleetJobResult&& result) {
    ManifestEntryResult& entry_result = out.entries[index];
    entry_result.entry = manifest.entries[index];
    const core::CaptureResult* capture = result.capture();
    if (capture == nullptr) return;
    core::JobFigures figures = result.Figures();
    entry_result.engine_requests = figures.engine_requests;
    entry_result.native_requests = figures.native_requests;
    entry_result.native_ratio = figures.native_ratio;
    entry_result.pii_fields = PiiScanner(result.job.cohort.profile)
                                  .Scan(*capture->native_index)
                                  .LeakCount();
    if (!result.crawl.has_value()) return;
    entry_result.incognito_effective = result.crawl->incognito_effective;
    for (const auto& side : result.crawl->Sides()) {
      for (const auto& leak :
           detector.Scan(side.flows, side.index, side.engine)) {
        if (leak.granularity == LeakGranularity::kFullUrl) {
          ++entry_result.full_url_leak_destinations;
        } else {
          ++entry_result.host_only_leak_destinations;
        }
      }
    }
  });
  return out;
}

}  // namespace panoptes::analysis
