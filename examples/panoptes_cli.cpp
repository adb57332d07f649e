// panoptes_cli — the command-line face of the framework, roughly what
// the paper's tooling exposes to an operator.
//
//   panoptes_cli browsers
//   panoptes_cli crawl --browser Yandex --sites 50 [--incognito]
//                      [--har flows.har] [--csv flows.csv]
//   panoptes_cli idle  --browser Opera --minutes 10
//   panoptes_cli fleet --jobs 4 [--sites 100] [--shards 4]
//                      [--browsers Yandex,Opera] [--incognito] [--idle]
//                      [--population N] [--population-seed S]
//                      [--chaos-profile flaky|dns-storm|...|file.json]
//                      [--max-retries N] [--manifest-out manifest.json]
//                      [--cache-dir DIR] [--resume] [--kill-after-jobs N]
//                      [--memory-budget BYTES] [--spill-dir DIR] [--shed]
//                      [--watchdog-seconds N] [--window SECONDS]
//                      [--smuggling F] [--bounce-fraction F]
//                      [--decoration-fraction F] [--plain-http-fraction F]
//                      [--max-bounce-hops N]
//                      [--smuggling-json s.json] [--smuggling-csv s.csv]
//                      [--json report.json] [--csv report.csv]
//                      [--metrics-out metrics.prom] [--trace-out trace.json]
//                      [--journal-out journal.jsonl]
//   panoptes_cli validate-telemetry [--metrics f.prom] [--trace f.json]
//                      [--manifest manifest.json] [--journal f.jsonl]
//   panoptes_cli explain --finding 0x<flow_id> --cache-dir DIR
//                      [--journal journal.jsonl]
//   panoptes_cli baseline-check --baseline base.json --current cur.json
//   panoptes_cli sitelist [--out 1k.txt]
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "analysis/export.h"
#include "analysis/flow_index.h"
#include "analysis/historyleak.h"
#include "core/snapshot.h"
#include "obs/baseline.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "analysis/report.h"
#include "analysis/stats.h"
#include "analysis/manifest.h"
#include "analysis/timeline.h"
#include "browser/profiles.h"
#include "chaos/profile.h"
#include "core/campaign.h"
#include "core/fleet.h"
#include "core/framework.h"
#include "core/result_cache.h"
#include "core/run_manifest.h"
#include "core/testbed.h"
#include "device/population.h"
#include "proxy/har.h"
#include "util/args.h"
#include "util/hex.h"
#include "util/strings.h"
#include "web/sitelist.h"

using namespace panoptes;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: panoptes_cli <command>\n"
               "  browsers                      list the instrumented browsers\n"
               "  crawl --browser <name> [--sites N] [--incognito]\n"
               "        [--har FILE] [--csv FILE]\n"
               "  idle  --browser <name> [--minutes M]\n"
               "  fleet [--jobs N] [--sites N] [--shards K (default 1)]\n"
               "        [--seed S]\n"
               "        [--browsers A,B,..] [--incognito] [--idle]\n"
               "        [--population N] [--population-seed S]\n"
               "        [--chaos-profile NAME|FILE] [--max-retries N]\n"
               "        [--cache-dir DIR] [--resume] [--kill-after-jobs N]\n"
               "        [--memory-budget BYTES] [--spill-dir DIR] [--shed]\n"
               "        [--watchdog-seconds N] [--window SECONDS]\n"
               "        [--smuggling F] [--bounce-fraction F]\n"
               "        [--decoration-fraction F] [--plain-http-fraction F]\n"
               "        [--max-bounce-hops N]\n"
               "        [--smuggling-json FILE] [--smuggling-csv FILE]\n"
               "        [--manifest-out FILE]\n"
               "        [--json FILE] [--csv FILE]\n"
               "        [--metrics-out FILE] [--trace-out FILE]\n"
               "        [--journal-out FILE]\n"
               "  validate-telemetry [--metrics FILE] [--trace FILE]\n"
               "        [--manifest FILE] [--journal FILE]\n"
               "  explain --finding 0xID --cache-dir DIR [--journal FILE]\n"
               "  baseline-check --baseline FILE --current FILE\n"
               "  sitelist [--out FILE]         dump the crawl dataset\n"
               "  run-manifest <FILE> [--out FILE]   execute a JSON campaign\n");
  return 2;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

core::Framework MakeFramework(int sites) {
  core::FrameworkOptions options;
  options.catalog.popular_count = sites / 2;
  options.catalog.sensitive_count = sites - sites / 2;
  return core::Framework(options);
}

// Resolves --chaos-profile: a preset name ("flaky", "dns-storm", ...)
// or a path to a FaultProfile JSON file.
std::optional<chaos::FaultProfile> LoadChaosProfile(const std::string& arg) {
  if (auto named = chaos::FaultProfile::Named(arg)) return named;
  std::ifstream in(arg, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return chaos::FaultProfile::FromJson(text);
}

int CmdBrowsers() {
  analysis::TextTable table({"Browser", "Version", "Package", "DNS",
                             "Incognito", "Instrumentation"});
  for (const auto& spec : browser::AllBrowserSpecs()) {
    table.AddRow(
        {spec.name, spec.version, spec.package,
         spec.doh == browser::DohProvider::kNone ? "stub" : "DoH",
         spec.has_incognito ? "yes" : "no",
         spec.instrumentation == browser::Instrumentation::kCdp
             ? "CDP"
             : "Frida"});
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}

int CmdCrawl(const util::Args& args) {
  std::string browser_name = args.OptionOr("browser", "Yandex");
  const auto* spec = browser::FindSpec(browser_name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown browser: %s\n", browser_name.c_str());
    return 1;
  }
  int site_count = static_cast<int>(args.IntOptionOr("sites", 40));
  auto framework = MakeFramework(site_count);

  std::vector<const web::Site*> sites;
  for (const auto& site : framework.catalog().sites()) sites.push_back(&site);

  core::CrawlOptions crawl_options;
  crawl_options.incognito = args.HasFlag("incognito");
  auto result = core::RunCrawl(framework, *spec, sites, crawl_options);

  auto requests = analysis::ComputeRequestStats(result);
  auto volume = analysis::ComputeVolumeStats(result);
  std::printf("%s: %llu engine / %llu native requests (ratio %s, native "
              "bytes +%s)%s\n",
              spec->name.c_str(),
              (unsigned long long)requests.engine_requests,
              (unsigned long long)requests.native_requests,
              analysis::Ratio(requests.native_ratio).c_str(),
              analysis::Percent(volume.native_extra_fraction).c_str(),
              crawl_options.incognito ? " [incognito]" : "");

  std::vector<net::Url> visited;
  for (const auto* site : sites) visited.push_back(site->landing_url);
  analysis::HistoryLeakDetector detector(visited);
  for (const auto& side : result.Sides()) {
    for (const auto& leak :
         detector.Scan(side.flows, side.index, side.engine)) {
      std::printf("leak -> %s [%s%s%s]\n", leak.destination_host.c_str(),
                  std::string(LeakGranularityName(leak.granularity)).c_str(),
                  leak.persistent_identifier ? ", persistent id" : "",
                  leak.via_engine_injection ? ", JS injection" : "");
    }
  }

  const auto har_path = args.Option("har");
  const auto csv_path = args.Option("csv");
  if (!har_path && !csv_path) return 0;
  // Both stores concatenated into one capture, like a proxy dump.
  proxy::FlowStore combined;
  for (const auto& flow : result.engine_flows->flows()) {
    combined.Add(flow.Materialize());
  }
  for (const auto& flow : result.native_flows->flows()) {
    combined.Add(flow.Materialize());
  }
  if (har_path) {
    if (!WriteFile(*har_path, proxy::ExportHar(combined, "panoptes_cli"))) {
      std::fprintf(stderr, "cannot write %s\n", har_path->c_str());
      return 1;
    }
    std::printf("wrote %zu flows to %s\n", combined.size(),
                har_path->c_str());
  }
  if (csv_path) {
    if (!WriteFile(*csv_path, analysis::FlowStoreCsv(combined))) {
      std::fprintf(stderr, "cannot write %s\n", csv_path->c_str());
      return 1;
    }
    std::printf("wrote %zu flows to %s\n", combined.size(),
                csv_path->c_str());
  }
  return 0;
}

int CmdIdle(const util::Args& args) {
  std::string browser_name = args.OptionOr("browser", "Opera");
  const auto* spec = browser::FindSpec(browser_name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown browser: %s\n", browser_name.c_str());
    return 1;
  }
  auto framework = MakeFramework(4);
  core::IdleOptions idle_options;
  idle_options.duration =
      util::Duration::Minutes(args.IntOptionOr("minutes", 10));
  auto result = core::RunIdle(framework, *spec, idle_options);

  auto timeline =
      analysis::AnalyzeTimeline(result.cumulative_by_bucket, result.bucket);
  std::printf("%s idle for %llds: %llu native requests, shape %s "
              "(first-minute share %s)\n",
              spec->name.c_str(),
              (long long)(idle_options.duration.millis / 1000),
              (unsigned long long)timeline.total,
              std::string(analysis::TimelineShapeName(timeline.shape)).c_str(),
              analysis::Percent(timeline.first_minute_share).c_str());
  for (const auto& host : result.native_index->SortedHosts()) {
    std::printf("  %-30s %s\n", host.c_str(),
                analysis::Percent(result.ShareToHost(host)).c_str());
  }
  return 0;
}

// Whole-dataset campaign across many browsers, sharded over worker
// threads. Same seed ⇒ same report, whatever --jobs says; see
// "Parallel execution" in EXPERIMENTS.md.
int CmdFleet(const util::Args& args) {
  std::vector<browser::BrowserSpec> browsers;
  if (auto names = args.Option("browsers")) {
    for (const auto& name : util::SplitNonEmpty(*names, ',')) {
      const auto* spec = browser::FindSpec(name);
      if (spec == nullptr) {
        std::fprintf(stderr, "unknown browser: %s\n", name.c_str());
        return 1;
      }
      browsers.push_back(*spec);
    }
  } else {
    browsers = browser::AllBrowserSpecs();
  }

  std::vector<core::CampaignKind> kinds = {core::CampaignKind::kCrawl};
  if (args.HasFlag("incognito")) {
    kinds.push_back(core::CampaignKind::kIncognitoCrawl);
  }
  if (args.HasFlag("idle")) kinds.push_back(core::CampaignKind::kIdle);

  int site_count = static_cast<int>(args.IntOptionOr("sites", 40));
  core::FleetOptions options;
  options.jobs =
      std::max<int>(1, static_cast<int>(args.IntOptionOr("jobs", 1)));
  options.base_seed =
      static_cast<uint64_t>(args.IntOptionOr("seed", 20231024));
  options.framework.catalog.popular_count = site_count / 2;
  options.framework.catalog.sensitive_count = site_count - site_count / 2;

  // UID-smuggling scenario knobs (web/sitegen.h): --smuggling F turns
  // on both first-party bounce chains and link decoration for a
  // fraction F of generated sites; the fine-grained flags set one knob
  // each. All default to 0, which reproduces the legacy catalog byte
  // for byte.
  auto fraction_option = [&](const char* name) -> double {
    auto text = args.Option(name);
    return text ? std::strtod(text->c_str(), nullptr) : 0.0;
  };
  web::SiteGenOptions& sitegen = options.framework.catalog.sitegen;
  if (double f = fraction_option("smuggling"); f > 0) {
    sitegen.bounce_fraction = f;
    sitegen.decoration_fraction = f;
  }
  if (double f = fraction_option("bounce-fraction"); f > 0) {
    sitegen.bounce_fraction = f;
  }
  if (double f = fraction_option("decoration-fraction"); f > 0) {
    sitegen.decoration_fraction = f;
  }
  if (double f = fraction_option("plain-http-fraction"); f > 0) {
    sitegen.plain_http_fraction = f;
  }
  sitegen.max_bounce_hops = static_cast<int>(
      args.IntOptionOr("max-bounce-hops", sitegen.max_bounce_hops));

  // Chaos fabric + self-healing: an enabled profile injects seeded
  // faults; --max-retries arms both the per-visit retry loop and the
  // job-level retry/quarantine budget.
  if (auto profile_arg = args.Option("chaos-profile")) {
    auto profile = LoadChaosProfile(*profile_arg);
    if (!profile) {
      std::fprintf(stderr,
                   "unknown chaos profile: %s (presets:", profile_arg->c_str());
      for (const auto& name : chaos::FaultProfile::NamedProfiles()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, ")\n");
      return 1;
    }
    options.framework.chaos = *profile;
  }
  int max_retries = static_cast<int>(args.IntOptionOr("max-retries", 0));
  options.max_job_retries = max_retries;
  core::CrawlOptions crawl_options;
  crawl_options.retry.max_retries = max_retries;

  // Streaming ingest: per-job live-store memory budget, spill directory
  // for sealed segments (safe to share across jobs — segment filenames
  // embed the per-job provenance tag), deterministic shedding, and a
  // simulated-time watchdog. Defaults reproduce the unbounded batch
  // capture bit for bit.
  core::StreamOptions stream;
  stream.memory_budget_bytes =
      static_cast<uint64_t>(args.IntOptionOr("memory-budget", 0));
  stream.spill_dir = args.OptionOr("spill-dir", "");
  stream.shed_when_full = args.HasFlag("shed");
  options.watchdog_deadline =
      util::Duration::Seconds(args.IntOptionOr("watchdog-seconds", 0));
  crawl_options.stream = stream;
  core::IdleOptions idle_options;
  idle_options.stream = stream;

  // Rolling-window mode (--window): one continuous streaming campaign
  // per browser, reported straight from the live incremental index —
  // no fleet executor, no terminal batch pass, memory bounded by the
  // budget however long the window runs.
  if (int64_t window_seconds = args.IntOptionOr("window", 0);
      window_seconds > 0) {
    core::WindowOptions window_options;
    window_options.window = util::Duration::Seconds(window_seconds);
    window_options.stream = stream;
    window_options.watchdog_deadline = options.watchdog_deadline;
    obs::MetricsRegistry::Default().Reset();
    auto window_journal_path = args.Option("journal-out");
    obs::Journal run_journal;
    std::string combined = "{\"results\":[";
    bool first = true;
    // Every browser's framework runs on the same testbed, built once, as
    // the fleet executor does.
    core::FrameworkOptions base_fw = options.framework;
    base_fw.catalog_seed = options.base_seed;
    const auto testbed =
        core::Testbed::Build(base_fw.CatalogSeed(), base_fw.catalog);
    for (const auto& spec : browsers) {
      core::FrameworkOptions fw = base_fw;
      fw.seed = core::DeriveJobSeed(options.base_seed, spec.name,
                                    core::CampaignKind::kIdle, 0);
      obs::Journal job_journal;
      if (window_journal_path) fw.journal = &job_journal;
      core::Framework framework(std::move(fw), testbed);
      auto result = core::RunWindow(framework, spec, window_options);
      std::printf(
          "%s window %llds: %llu native requests, %llu shed, %llu spill "
          "segments, peak live %llu bytes%s\n",
          spec.name.c_str(), static_cast<long long>(window_seconds),
          static_cast<unsigned long long>(result.native_flows),
          static_cast<unsigned long long>(result.ingest.flows_shed),
          static_cast<unsigned long long>(result.ingest.spill_segments),
          static_cast<unsigned long long>(result.ingest.peak_live_bytes),
          result.watchdog_cancelled ? " [watchdog cancelled]" : "");
      if (!first) combined += ",";
      first = false;
      combined += analysis::WindowReportJson(
          spec.name, result.native_index, framework.options().device_profile);
      if (window_journal_path) run_journal.Append(job_journal);
    }
    combined += "]}";
    if (auto json_path = args.Option("json")) {
      if (!WriteFile(*json_path, combined)) {
        std::fprintf(stderr, "cannot write %s\n", json_path->c_str());
        return 1;
      }
      std::printf("wrote %s\n", json_path->c_str());
    }
    if (auto metrics_path = args.Option("metrics-out")) {
      if (!WriteFile(*metrics_path,
                     obs::MetricsRegistry::Default().PrometheusText())) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path->c_str());
        return 1;
      }
      std::printf("wrote %s\n", metrics_path->c_str());
    }
    if (window_journal_path) {
      if (!WriteFile(*window_journal_path, run_journal.Jsonl())) {
        std::fprintf(stderr, "cannot write %s\n",
                     window_journal_path->c_str());
        return 1;
      }
      std::printf("wrote %zu journal events to %s\n", run_journal.size(),
                  window_journal_path->c_str());
    }
    return 0;
  }

  // Result cache: --cache-dir persists each completed job as a
  // fingerprinted snapshot and replays matching snapshots on the next
  // run; --resume additionally re-executes cached quarantines.
  // --kill-after-jobs N hard-kills the process after N completed jobs
  // (the crash half of the fleet_resume smoke test); _Exit skips
  // cleanup on purpose — a crash wouldn't run it either.
  options.cache_dir = args.OptionOr("cache-dir", "");
  options.resume = args.HasFlag("resume");
  // Observatory journal: strictly additive, so enabling it never moves
  // a report byte — but it is off unless asked for (per-job buffers are
  // not free).
  auto journal_path = args.Option("journal-out");
  options.journal = journal_path.has_value();
  int64_t kill_after = args.IntOptionOr("kill-after-jobs", 0);
  if (kill_after > 0) {
    static std::atomic<int64_t> completed{0};
    options.on_job_complete = [kill_after](const core::FleetJobResult&) {
      if (completed.fetch_add(1) + 1 >= kill_after) std::_Exit(17);
    };
  }

  // The shard count is part of every job's seed identity (and so of
  // every flow uid), which is why it never follows --jobs: the worker
  // count alone must not change a report byte.
  int shards = static_cast<int>(args.IntOptionOr("shards", 1));
  // Device-population campaign: --population N synthesizes N device
  // cohorts deterministically from --population-seed and crosses them
  // with the browser x kind x shard plan. No --population keeps the
  // single-device (paper testbed) plan, byte for byte.
  std::vector<device::DeviceCohort> cohorts;
  if (int64_t population = args.IntOptionOr("population", 0);
      population > 0) {
    device::PopulationOptions pop_options;
    pop_options.size = static_cast<int>(population);
    pop_options.seed = static_cast<uint64_t>(
        args.IntOptionOr("population-seed", 20231024));
    cohorts = device::PopulationGenerator::Generate(pop_options);
  }
  auto jobs = core::FleetExecutor::PlanCampaign(
      browsers, cohorts, kinds, shards, crawl_options, idle_options);
  if (cohorts.empty()) {
    std::fprintf(stderr, "fleet: %zu jobs (%zu browsers x %zu kinds), %d "
                 "workers\n",
                 jobs.size(), browsers.size(), kinds.size(), options.jobs);
  } else {
    std::fprintf(stderr, "fleet: %zu jobs (%zu browsers x %zu cohorts x "
                 "%zu kinds), %d workers\n",
                 jobs.size(), browsers.size(), cohorts.size(), kinds.size(),
                 options.jobs);
  }

  // Telemetry: fresh counters per invocation; span tracing only when a
  // trace file is requested (per-thread buffering is not free).
  auto metrics_path = args.Option("metrics-out");
  auto trace_path = args.Option("trace-out");
  obs::MetricsRegistry::Default().Reset();
  if (trace_path) {
    obs::Tracer::Default().Clear();
    obs::Tracer::Default().SetEnabled(true);
  }

  core::FleetExecutor executor(options);
  core::FleetRunStats stats;
  auto results = executor.Run(jobs, &stats);
  // The manifest is built from the un-merged results (plan order), so
  // quarantined shards are accounted before salvage drops them.
  core::CacheStats cache_stats;
  if (executor.cache() != nullptr) cache_stats = executor.cache()->Stats();
  core::RunManifest manifest = core::BuildRunManifest(
      options, results, executor.cache() != nullptr ? &cache_stats : nullptr);
  // The journal merges from the un-merged results (plan order) —
  // MergeShards drops per-job identity.
  obs::Journal run_journal;
  if (journal_path) {
    core::FleetExecutor::MergeJournal(results, &run_journal);
  }
  auto merged = core::FleetExecutor::MergeShards(std::move(results));
  std::printf("%s",
              analysis::FleetSummaryTable(merged, &stats, &manifest).c_str());

  if (auto manifest_path = args.Option("manifest-out")) {
    if (!WriteFile(*manifest_path, analysis::RunManifestJson(manifest))) {
      std::fprintf(stderr, "cannot write %s\n", manifest_path->c_str());
      return 1;
    }
    std::printf("wrote %s\n", manifest_path->c_str());
  }
  if (auto json_path = args.Option("json")) {
    if (!WriteFile(*json_path, analysis::FleetReportJson(merged))) {
      std::fprintf(stderr, "cannot write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path->c_str());
  }
  if (auto csv_path = args.Option("csv")) {
    if (!WriteFile(*csv_path, analysis::FleetSummaryCsv(merged))) {
      std::fprintf(stderr, "cannot write %s\n", csv_path->c_str());
      return 1;
    }
    std::printf("wrote %s\n", csv_path->c_str());
  }
  if (auto smuggling_json = args.Option("smuggling-json")) {
    if (!WriteFile(*smuggling_json,
                   analysis::UidSmugglingReportJson(merged))) {
      std::fprintf(stderr, "cannot write %s\n", smuggling_json->c_str());
      return 1;
    }
    std::printf("wrote %s\n", smuggling_json->c_str());
  }
  if (auto smuggling_csv = args.Option("smuggling-csv")) {
    if (!WriteFile(*smuggling_csv, analysis::UidSmugglingCsv(merged))) {
      std::fprintf(stderr, "cannot write %s\n", smuggling_csv->c_str());
      return 1;
    }
    std::printf("wrote %s\n", smuggling_csv->c_str());
  }

  // Telemetry files go last so report-rendering spans are included.
  if (metrics_path) {
    if (!WriteFile(*metrics_path,
                   obs::MetricsRegistry::Default().PrometheusText())) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path->c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_path->c_str());
  }
  if (trace_path) {
    obs::Tracer::Default().SetEnabled(false);
    if (!WriteFile(*trace_path, obs::Tracer::Default().ChromeTraceJson())) {
      std::fprintf(stderr, "cannot write %s\n", trace_path->c_str());
      return 1;
    }
    std::printf("wrote %zu spans to %s\n",
                obs::Tracer::Default().EventCount(), trace_path->c_str());
  }
  if (journal_path) {
    if (!WriteFile(*journal_path, run_journal.Jsonl())) {
      std::fprintf(stderr, "cannot write %s\n", journal_path->c_str());
      return 1;
    }
    std::printf("wrote %zu journal events to %s\n", run_journal.size(),
                journal_path->c_str());
  }
  return 0;
}

// Validates telemetry files produced by `fleet`: the metrics file must
// be well-formed Prometheus text exposition with at least one sample,
// the trace file valid Chrome trace_event JSON with at least one event.
// Exit 0 only when every given file checks out (the ctest smoke test
// gates on this).
int CmdValidateTelemetry(const util::Args& args) {
  bool checked_any = false;

  if (auto metrics_path = args.Option("metrics")) {
    std::ifstream in(*metrics_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", metrics_path->c_str());
      return 1;
    }
    std::string line;
    size_t samples = 0;
    size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      // "name[{labels}] value": a metric name, optional label set, one
      // numeric value.
      size_t name_end = line.find_first_of(" {");
      if (name_end == 0 || name_end == std::string::npos) {
        std::fprintf(stderr, "%s:%zu: malformed sample: %s\n",
                     metrics_path->c_str(), line_no, line.c_str());
        return 1;
      }
      for (char c : line.substr(0, name_end)) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == ':')) {
          std::fprintf(stderr, "%s:%zu: bad metric name: %s\n",
                       metrics_path->c_str(), line_no, line.c_str());
          return 1;
        }
      }
      size_t value_at = name_end;
      if (line[name_end] == '{') {
        size_t close = line.find('}', name_end);
        if (close == std::string::npos) {
          std::fprintf(stderr, "%s:%zu: unterminated labels: %s\n",
                       metrics_path->c_str(), line_no, line.c_str());
          return 1;
        }
        value_at = close + 1;
      }
      try {
        size_t used = 0;
        std::stod(line.substr(value_at), &used);
        if (line.find_first_not_of(" \t", value_at + used) !=
            std::string::npos) {
          throw std::invalid_argument("trailing garbage");
        }
      } catch (const std::exception&) {
        std::fprintf(stderr, "%s:%zu: bad sample value: %s\n",
                     metrics_path->c_str(), line_no, line.c_str());
        return 1;
      }
      ++samples;
    }
    if (samples == 0) {
      std::fprintf(stderr, "%s: no samples\n", metrics_path->c_str());
      return 1;
    }
    std::printf("metrics ok: %zu samples in %s\n", samples,
                metrics_path->c_str());
    checked_any = true;
  }

  if (auto trace_path = args.Option("trace")) {
    std::ifstream in(*trace_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", trace_path->c_str());
      return 1;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto parsed = util::Json::Parse(text);
    if (!parsed || !parsed->is_object()) {
      std::fprintf(stderr, "%s: not a JSON object\n", trace_path->c_str());
      return 1;
    }
    const util::Json* events = parsed->Find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      std::fprintf(stderr, "%s: missing traceEvents array\n",
                   trace_path->c_str());
      return 1;
    }
    if (events->as_array().empty()) {
      std::fprintf(stderr, "%s: no trace events\n", trace_path->c_str());
      return 1;
    }
    for (const auto& event : events->as_array()) {
      for (const char* key : {"name", "ph", "ts", "dur", "pid", "tid"}) {
        if (event.Find(key) == nullptr) {
          std::fprintf(stderr, "%s: event missing \"%s\"\n",
                       trace_path->c_str(), key);
          return 1;
        }
      }
    }
    std::printf("trace ok: %zu events in %s\n", events->as_array().size(),
                trace_path->c_str());
    checked_any = true;
  }

  if (auto manifest_path = args.Option("manifest")) {
    std::ifstream in(*manifest_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", manifest_path->c_str());
      return 1;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto parsed = util::Json::Parse(text);
    if (!parsed || !parsed->is_object()) {
      std::fprintf(stderr, "%s: not a JSON object\n", manifest_path->c_str());
      return 1;
    }
    for (const char* key :
         {"base_seed", "chaos_profile", "max_job_retries", "degraded",
          "totals", "cache", "jobs", "degraded_visits"}) {
      if (parsed->Find(key) == nullptr) {
        std::fprintf(stderr, "%s: missing \"%s\"\n", manifest_path->c_str(),
                     key);
        return 1;
      }
    }
    const util::Json* jobs = parsed->Find("jobs");
    if (!jobs->is_array()) {
      std::fprintf(stderr, "%s: \"jobs\" is not an array\n",
                   manifest_path->c_str());
      return 1;
    }
    for (const auto& job : jobs->as_array()) {
      for (const char* key : {"browser", "kind", "shard", "seed", "attempts",
                              "quarantined", "faults_injected"}) {
        if (job.Find(key) == nullptr) {
          std::fprintf(stderr, "%s: job entry missing \"%s\"\n",
                       manifest_path->c_str(), key);
          return 1;
        }
      }
    }
    const util::Json* totals = parsed->Find("totals");
    if (!totals->is_object() ||
        totals->Find("faults_injected") == nullptr ||
        totals->Find("quarantined_jobs") == nullptr) {
      std::fprintf(stderr, "%s: malformed \"totals\"\n",
                   manifest_path->c_str());
      return 1;
    }
    std::printf("manifest ok: %zu jobs, %s, in %s\n",
                jobs->as_array().size(),
                parsed->Find("degraded")->as_bool() ? "degraded"
                                                    : "not degraded",
                manifest_path->c_str());
    checked_any = true;
  }

  if (auto journal_path = args.Option("journal")) {
    std::ifstream in(*journal_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", journal_path->c_str());
      return 1;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fail-soft (obs::ValidateJournalJsonl): a journal cut off
    // mid-write — crash, full disk — still yields its valid prefix.
    // Exit 3 distinguishes "truncated but salvageable" from hard
    // corruption (1), so callers can keep the recorded events.
    obs::JournalValidation validation = obs::ValidateJournalJsonl(text);
    if (validation.truncated) {
      std::printf("journal truncated: %zu/%zu events valid in %s (%s)\n",
                  validation.valid_events, validation.declared_events,
                  journal_path->c_str(), validation.error.c_str());
      return 3;
    }
    if (!validation.ok) {
      std::fprintf(stderr, "%s: %s\n", journal_path->c_str(),
                   validation.error.c_str());
      return 1;
    }
    // A zero-event journal (header only) is valid: a zero-job run still
    // writes a well-formed file.
    std::printf("journal ok: %zu events in %s\n", validation.valid_events,
                journal_path->c_str());
    checked_any = true;
  }

  if (!checked_any) {
    std::fprintf(stderr,
                 "validate-telemetry needs --metrics, --trace, --manifest "
                 "and/or --journal\n");
    return 2;
  }
  return 0;
}

// Walks a finding's provenance chain: given a flow_id (as printed in
// FleetReportJson findings and in the journal), locates the exact flow
// in the run's result-cache snapshots and reconstructs job → visit →
// flow, optionally quoting the journal lines that mention it. This is
// the observatory's payoff: every exported finding is a citable claim.
int CmdExplain(const util::Args& args) {
  auto finding = args.Option("finding");
  std::string cache_dir = args.OptionOr("cache-dir", "");
  if (!finding || cache_dir.empty()) {
    std::fprintf(stderr,
                 "explain needs --finding 0x<flow_id> and --cache-dir\n");
    return 2;
  }
  std::string hex = *finding;
  if (hex.rfind("0x", 0) == 0 || hex.rfind("0X", 0) == 0) {
    hex = hex.substr(2);
  }
  char* end = nullptr;
  uint64_t uid = std::strtoull(hex.c_str(), &end, 16);
  if (end == hex.c_str() || *end != '\0' || uid == 0) {
    std::fprintf(stderr, "bad flow id: %s\n", finding->c_str());
    return 2;
  }

  // Snapshot walk in sorted filename order (deterministic output).
  std::vector<std::filesystem::path> snaps;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(cache_dir, ec)) {
    if (entry.path().extension() == ".snap") snaps.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "cannot read %s\n", cache_dir.c_str());
    return 1;
  }
  std::sort(snaps.begin(), snaps.end());

  const uint32_t tag = static_cast<uint32_t>(uid >> 32);
  const uint32_t ordinal = static_cast<uint32_t>(uid);
  for (const auto& path : snaps) {
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    core::FleetJobResult result;
    if (!core::snapshot::ReadAny(bytes, &result)) continue;

    struct Side {
      const proxy::FlowStore* store;
      const char* role;
    };
    std::vector<Side> sides;
    if (result.crawl.has_value()) {
      sides.push_back({result.crawl->engine_flows.get(), "engine"});
    }
    if (const core::CaptureResult* capture = result.capture()) {
      sides.push_back({capture->native_flows.get(), "native"});
    }
    for (const Side& side : sides) {
      for (const auto& flow : side.store->flows()) {
        if (flow.uid != uid) continue;

        std::printf("finding %s\n", util::Hex64(uid).c_str());
        std::printf(
            "  job: browser=%s kind=%s shard=%d/%d seed=0x%016llx "
            "attempts=%d%s\n",
            result.job.spec.name.c_str(),
            std::string(core::CampaignKindName(result.job.kind)).c_str(),
            result.job.shard, result.job.shard_count,
            static_cast<unsigned long long>(result.seed), result.attempts,
            result.quarantined ? " QUARANTINED" : "");
        std::printf("  snapshot: %s\n", path.filename().string().c_str());
        if (result.crawl.has_value()) {
          const auto& visits = result.crawl->visits;
          for (size_t v = 0; v < visits.size(); ++v) {
            const core::VisitRecord& rec = visits[v];
            const bool in_native = rec.native_tag == tag &&
                                   ordinal >= rec.native_flow_begin &&
                                   ordinal < rec.native_flow_end;
            const bool in_engine = rec.engine_tag == tag &&
                                   ordinal >= rec.engine_flow_begin &&
                                   ordinal < rec.engine_flow_end;
            if (!in_native && !in_engine) continue;
            std::string fault = rec.fault_cause.empty()
                                    ? std::string()
                                    : ", fault=" + rec.fault_cause;
            std::printf(
                "  visit: #%zu %s (%s, attempts=%d%s%s)\n", v,
                rec.hostname.c_str(), rec.ok ? "ok" : "failed",
                rec.attempts, fault.c_str(),
                rec.incognito_honored ? "" : ", incognito NOT honored");
            break;
          }
        }
        std::printf(
            "  flow: [%s] %s %s -> %d (%s store, origin=%s%s%s)\n",
            util::FormatTimestamp(flow.time).c_str(),
            std::string(net::MethodName(flow.method)).c_str(),
            std::string(flow.url.text()).c_str(), flow.response_status,
            side.role,
            std::string(proxy::TrafficOriginName(flow.origin)).c_str(),
            flow.fault_injected ? ", fault-injected" : "",
            flow.blocked ? ", blocked" : "");

        if (auto journal_path = args.Option("journal")) {
          std::ifstream journal(*journal_path, std::ios::binary);
          if (!journal) {
            std::fprintf(stderr, "cannot read %s\n",
                         journal_path->c_str());
            return 1;
          }
          const std::string needle =
              "\"" + util::Hex64(uid) + "\"";
          std::string line;
          size_t matches = 0;
          while (std::getline(journal, line)) {
            if (line.find(needle) != std::string::npos) {
              std::printf("  journal: %s\n", line.c_str());
              ++matches;
            }
          }
          if (matches == 0) {
            std::printf("  journal: no events mention this flow\n");
          }
        }
        return 0;
      }
    }
  }
  std::fprintf(stderr, "flow %s not found in %s (%zu snapshots)\n",
               util::Hex64(uid).c_str(), cache_dir.c_str(),
               snaps.size());
  return 1;
}

// Compares a metrics/bench JSON file against a checked-in baseline
// with tolerance bands (obs::BaselineGate). CI runs this over every
// bench/baselines/*.json; a regression fails the build.
int CmdBaselineCheck(const util::Args& args) {
  auto baseline_path = args.Option("baseline");
  auto current_path = args.Option("current");
  if (!baseline_path || !current_path) {
    std::fprintf(stderr, "baseline-check needs --baseline and --current\n");
    return 2;
  }
  auto read = [](const std::string& path) -> std::optional<std::string> {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  auto baseline = read(*baseline_path);
  if (!baseline) {
    std::fprintf(stderr, "cannot read %s\n", baseline_path->c_str());
    return 1;
  }
  auto current = read(*current_path);
  if (!current) {
    std::fprintf(stderr, "cannot read %s\n", current_path->c_str());
    return 1;
  }
  obs::BaselineResult result =
      obs::BaselineGate::Compare(*baseline, *current);
  std::printf("%s", result.Render().c_str());
  return result.ok ? 0 : 1;
}

int CmdSitelist(const util::Args& args) {
  auto framework = MakeFramework(
      static_cast<int>(args.IntOptionOr("sites", 1000)));
  std::string list = web::SaveSiteList(framework.catalog());
  if (auto out = args.Option("out")) {
    if (!WriteFile(*out, list)) {
      std::fprintf(stderr, "cannot write %s\n", out->c_str());
      return 1;
    }
    std::printf("wrote %zu sites to %s\n",
                framework.catalog().sites().size(), out->c_str());
  } else {
    std::printf("%s", list.c_str());
  }
  return 0;
}

int CmdRunManifest(const util::Args& args) {
  std::string path = args.Positional(1);
  if (path.empty()) {
    std::fprintf(stderr, "run-manifest needs a file\n");
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto manifest = analysis::Manifest::FromJson(text);
  if (!manifest) {
    std::fprintf(stderr, "invalid manifest: %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "running %zu entries over %d sites...\n",
               manifest->entries.size(),
               manifest->popular_sites + manifest->sensitive_sites);
  auto result = analysis::RunManifest(*manifest);
  std::string rendered = result.ToJson();
  if (auto out_path = args.Option("out")) {
    if (!WriteFile(*out_path, rendered)) {
      std::fprintf(stderr, "cannot write %s\n", out_path->c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path->c_str());
  } else {
    std::printf("%s\n", rendered.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = util::Args::Parse(argc, argv);
  std::string command = args.Positional(0);
  if (command == "browsers") return CmdBrowsers();
  if (command == "crawl") return CmdCrawl(args);
  if (command == "idle") return CmdIdle(args);
  if (command == "fleet") return CmdFleet(args);
  if (command == "validate-telemetry") return CmdValidateTelemetry(args);
  if (command == "explain") return CmdExplain(args);
  if (command == "baseline-check") return CmdBaselineCheck(args);
  if (command == "sitelist") return CmdSitelist(args);
  if (command == "run-manifest") return CmdRunManifest(args);
  return Usage();
}
