// Declarative experiment manifests: describe a measurement campaign as
// JSON (which browsers, crawl or idle, incognito or not, how many
// sites), run it with one call, get structured JSON results back.
// This is how the CLI exposes "bring your own experiment" without
// writing C++ (panoptes_cli run-manifest campaign.json).
//
// Lives in analysis (not core) because each entry's result is already
// analysed: split ratio, leak destinations, PII field count.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/fleet.h"

namespace panoptes::analysis {

enum class ManifestMode { kCrawl, kIdle };

struct ManifestEntry {
  std::string browser;   // display name from Table 1
  ManifestMode mode = ManifestMode::kCrawl;
  bool incognito = false;
  int64_t idle_minutes = 10;  // idle entries only
};

struct Manifest {
  uint64_t seed = 20231024;
  int popular_sites = 50;
  int sensitive_sites = 50;
  std::vector<ManifestEntry> entries;

  // Parses {"seed":..,"popular_sites":..,"sensitive_sites":..,
  //         "entries":[{"browser":"Yandex","mode":"crawl",
  //                     "incognito":false,"idle_minutes":10}, ...]}.
  // Returns nullopt on structural errors, unknown browsers or modes.
  static std::optional<Manifest> FromJson(std::string_view text);

  std::string ToJson() const;
};

struct ManifestEntryResult {
  ManifestEntry entry;
  bool incognito_effective = false;
  uint64_t engine_requests = 0;
  uint64_t native_requests = 0;
  double native_ratio = 0;
  uint64_t full_url_leak_destinations = 0;
  uint64_t host_only_leak_destinations = 0;
  uint64_t pii_fields = 0;
};

struct ManifestResult {
  std::vector<ManifestEntryResult> entries;

  std::string ToJson() const;
};

// Runs the manifest as one fleet plan on core::FleetExecutor: one
// single-shard, default-cohort job per entry, in entry order, each on its
// own framework and derived seed. `options` supplies the fleet's workers,
// cache and journal; its base_seed and catalog counts are taken from the
// manifest. Results map 1:1 onto entries and are never shard-merged (two
// entries may share a browser and kind, e.g. idle at 1 and 10 minutes),
// and they are byte-identical at any worker count, cold or warm.
ManifestResult RunCampaignManifest(const Manifest& manifest,
                                   core::FleetOptions options = {});

}  // namespace panoptes::analysis
