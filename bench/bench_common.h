// Shared helpers for the bench binaries. Every bench regenerates one
// table/figure of the paper; they share the testbed construction and
// iterate browsers one at a time so flow stores can be dropped between
// browsers (15 full crawls held at once would be gigabytes).
#pragma once

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"
#include "util/hex.h"
#include "util/json.h"

namespace panoptes::bench {

// Machine-readable bench output (the observatory's baseline-gate
// input): every bench binary writes BENCH_<name>.json next to its
// stdout report — a flat map of named scalar metrics (medians in
// microseconds, wall seconds, counts), exact determinism checksums,
// and the git revision that produced it. obs::BaselineGate (and
// `panoptes_cli baseline-check`) compares these against the checked-in
// files under bench/baselines/.
//
//   BenchReport report("fig2_requests");
//   report.Metric("crawl_seconds", seconds);
//   report.Checksum("csv", util::HashString(csv));
//   report.Write();  // $PANOPTES_BENCH_OUT/BENCH_fig2_requests.json
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Metric(std::string key, double value) {
    metrics_[std::move(key)] = value;
  }
  // Timing convenience: stores `seconds` as <key>_us.
  void MetricUs(const std::string& key, double seconds) {
    Metric(key + "_us", seconds * 1e6);
  }
  // Determinism pins, rendered as fixed-width hex; the gate compares
  // them exactly (tolerance never applies).
  void Checksum(std::string key, uint64_t value) {
    checksums_[std::move(key)] = util::Hex64(value);
  }
  void Checksum(std::string key, std::string value) {
    checksums_[std::move(key)] = std::move(value);
  }

  // Serialized report (deterministic key order — util::JsonObject is
  // an ordered map). git_rev comes from $PANOPTES_GIT_REV, falling
  // back to $GITHUB_SHA, then "unknown".
  std::string ToJson() const {
    util::JsonObject root;
    root["bench"] = name_;
    const char* rev = std::getenv("PANOPTES_GIT_REV");
    if (rev == nullptr) rev = std::getenv("GITHUB_SHA");
    root["git_rev"] = std::string(rev != nullptr ? rev : "unknown");
    util::JsonObject metrics;
    for (const auto& [key, value] : metrics_) metrics[key] = value;
    root["metrics"] = std::move(metrics);
    util::JsonObject checksums;
    for (const auto& [key, value] : checksums_) checksums[key] = value;
    root["checksums"] = std::move(checksums);
    return util::Json(std::move(root)).Dump();
  }

  // Writes BENCH_<name>.json into $PANOPTES_BENCH_OUT (default: the
  // working directory). Best-effort: a bench never fails because the
  // report directory is missing, but the miss is printed.
  bool Write() const {
    const char* dir = std::getenv("PANOPTES_BENCH_OUT");
    std::string path = (dir != nullptr && *dir != '\0')
                           ? std::string(dir) + "/BENCH_" + name_ + ".json"
                           : "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::binary);
    if (out) out << ToJson() << "\n";
    if (!out) {
      std::fprintf(stderr, "bench-report: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("bench-report: wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  util::JsonObject metrics_;    // ordered: deterministic serialization
  util::JsonObject checksums_;
};

// Interleaved-median timer for phase measurements outside
// google-benchmark. Single-shot wall-clock numbers are noise-bound
// (one scheduler hiccup lands in exactly one variant) and the system
// clock can step mid-run; this helper fixes both. Variants are
// registered up front, every rep runs them back to back in
// registration order (so drift — thermal, cache, page-cache warmup —
// hits all variants equally instead of whichever ran last), each
// sample is taken on the monotonic steady clock, and the reported
// number per variant is the median over reps, which a single outlier
// sample cannot move.
class InterleavedTimer {
 public:
  // Registers a variant; `fn` is one timed execution.
  void Add(std::string label, std::function<void()> fn) {
    variants_.push_back(Variant{std::move(label), std::move(fn), {}});
  }

  // Runs `reps` interleaved rounds over every registered variant.
  void Run(int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      for (Variant& variant : variants_) {
        auto start = std::chrono::steady_clock::now();
        variant.fn();
        auto stop = std::chrono::steady_clock::now();
        variant.samples.push_back(
            std::chrono::duration<double>(stop - start).count());
      }
    }
  }

  // Median seconds for `label` over the collected reps; 0 when unknown
  // or not yet run.
  double MedianSeconds(std::string_view label) const {
    for (const Variant& variant : variants_) {
      if (variant.label != label || variant.samples.empty()) continue;
      std::vector<double> sorted = variant.samples;
      std::sort(sorted.begin(), sorted.end());
      return sorted[sorted.size() / 2];
    }
    return 0;
  }

  // "label median_us=... reps=N" per variant, registration order.
  void Print() const {
    for (const Variant& variant : variants_) {
      std::printf("%-24s median_us=%.1f reps=%zu\n", variant.label.c_str(),
                  MedianSeconds(variant.label) * 1e6,
                  variant.samples.size());
    }
  }

  // Folds every variant's median into `report` as <label>_median_us,
  // labels sanitized to [a-z0-9_] so they are stable JSON keys.
  void Report(BenchReport& report) const {
    for (const Variant& variant : variants_) {
      std::string key;
      key.reserve(variant.label.size());
      for (char c : variant.label) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
          key += static_cast<char>(
              std::tolower(static_cast<unsigned char>(c)));
        } else {
          key += '_';
        }
      }
      report.MetricUs(key + "_median", MedianSeconds(variant.label));
    }
  }

 private:
  struct Variant {
    std::string label;
    std::function<void()> fn;
    std::vector<double> samples;
  };
  std::vector<Variant> variants_;
};

// Steady-clock wall timer for BenchReport metrics ("how long did the
// main work take"). Telemetry only, like every bench number.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Site budget: the paper's 1000, reducible for quick runs via
// PANOPTES_SITES.
inline int SiteBudget(int fallback = 1000) {
  const char* env = std::getenv("PANOPTES_SITES");
  if (env == nullptr) return fallback;
  int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

inline core::FrameworkOptions DefaultOptions() {
  core::FrameworkOptions options;
  int budget = SiteBudget();
  options.catalog.popular_count = budget / 2;
  options.catalog.sensitive_count = budget - budget / 2;
  return options;
}

inline std::vector<const web::Site*> AllSites(
    const core::Framework& framework) {
  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) {
    sites.push_back(&site);
  }
  return sites;
}

// Runs the crawl for every browser in Table 1 order, invoking
// `consume` with each result before its stores are destroyed.
inline void ForEachBrowserCrawl(
    core::Framework& framework, const std::vector<const web::Site*>& sites,
    const core::CrawlOptions& options,
    const std::function<void(const core::CrawlResult&)>& consume) {
  for (const auto& spec : browser::AllBrowserSpecs()) {
    auto result = core::RunCrawl(framework, spec, sites, options);
    consume(result);
  }
}

inline void PrintHeader(const char* experiment, const char* claim) {
  std::printf("=== %s ===\n", experiment);
  std::printf("paper: %s\n\n", claim);
}

}  // namespace panoptes::bench
