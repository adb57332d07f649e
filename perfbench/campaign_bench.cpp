// Campaign benchmark runner.
//
// Runs one workload of the campaign benchmark through the library's
// public API and writes every raw measurement as one JSON document:
// set-up timings, and per iteration the wall and CPU time, the fleet's
// per-job times, the exact work counters from obs::MetricsRegistry, the
// rendered reports' checksums and, for traced iterations, every span.
// perfbench/run.py builds this binary, runs it, checks its outputs and
// turns the raw numbers into metrics; see perfbench/README.md.
//
//   campaign_bench --workload paper_fleet --seed 20231024 --seconds 25
//                  --trace 0 --work-dir DIR --out raw.json
//
// Untraced mode repeats untraced iterations until --seconds have
// passed. Traced mode alternates untraced and traced iterations for
// --seconds (the pair gives the tracing overhead), then runs one
// untraced iteration on a single worker so run.py can check that work
// counters and report bytes do not depend on the worker count.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/export.h"
#include "browser/profiles.h"
#include "core/fleet.h"
#include "device/population.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/args.h"
#include "util/clock.h"
#include "util/json.h"

namespace {

namespace fs = std::filesystem;
using namespace panoptes;

// The benchmark's fixed geometry. The shard count is part of every
// job's seed identity, so it is pinned here, never derived from the
// worker count.
constexpr int kWorkers = 3;
constexpr int kSetupReps = 9;
constexpr int kPaperSites = 1000;
constexpr int kPaperShards = 8;
constexpr int kPopulationCohorts = 3000;
constexpr int kPopulationSites = 3;
constexpr uint64_t kSpillBudgetBytes = 8 * 1024;
// Three sites are too few to average over: a web drawn from each seed
// would swing population_spill's work twofold between seeds. Its web is
// fixed; the seed draws the cohorts and every job's runtime streams.
constexpr uint64_t kPopulationCatalogSeed = 20231024;

struct Workload {
  std::string name;
  std::vector<browser::BrowserSpec> browsers;
  std::vector<core::CampaignKind> kinds;
  int sites = 0;
  int shards = 1;
  int cohorts = 0;           // 0 plans the paper testbed only
  std::optional<uint64_t> catalog_seed;  // unset: the web follows --seed
  bool spill = false;        // per-job budget, spilling to the work dir
  bool cold_cache = false;   // an empty result cache every iteration
  bool warm_cache = false;   // replays a cache prefilled during set-up
  bool smuggling_report = false;
};

std::optional<Workload> FindWorkload(std::string_view name) {
  Workload w;
  w.name = std::string(name);
  if (name == "paper_fleet" || name == "warm_replay") {
    w.browsers = browser::AllBrowserSpecs();
    w.kinds = {core::CampaignKind::kCrawl, core::CampaignKind::kIdle};
    w.sites = kPaperSites;
    w.shards = kPaperShards;
    w.cold_cache = name == "paper_fleet";
    w.warm_cache = name == "warm_replay";
    w.smuggling_report = true;
    return w;
  }
  if (name == "population_spill") {
    w.browsers = {*browser::FindSpec("DuckDuckGo")};
    w.kinds = {core::CampaignKind::kCrawl};
    w.sites = kPopulationSites;
    w.cohorts = kPopulationCohorts;
    w.catalog_seed = kPopulationCatalogSeed;
    w.spill = true;
    return w;
  }
  return std::nullopt;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(util::SteadyNowNanos() - start_ns) * 1e-9;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Peak resident set (VmHWM) in KiB; 0 where /proc is unavailable.
uint64_t PeakRssKib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// FNV-1a 64, kept local so the pinned checksums do not move when the
// library's own hash helpers change.
std::string Checksum(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, hash);
  return buf;
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

struct Plan {
  core::FleetOptions options;  // `jobs` is set per iteration
  std::vector<core::FleetJob> jobs;
};

struct Dirs {
  fs::path cache;
  fs::path spill;
  fs::path prefill_sums;
};

// The rendered reports, by name, in render order.
using Reports = std::vector<std::pair<std::string, std::string>>;

// Renders the workload's reports, each inside a benchmark span.
Reports Render(const Workload& w,
               const std::vector<core::FleetJobResult>& merged) {
  Reports reports;
  {
    obs::ScopedSpan span("bench.render.fleet_report_json", "bench");
    reports.emplace_back("fleet_report_json",
                         analysis::FleetReportJson(merged));
  }
  {
    obs::ScopedSpan span("bench.render.fleet_summary_csv", "bench");
    reports.emplace_back("fleet_summary_csv",
                         analysis::FleetSummaryCsv(merged));
  }
  if (w.smuggling_report) {
    obs::ScopedSpan span("bench.render.uid_smuggling_json", "bench");
    reports.emplace_back("uid_smuggling_json",
                         analysis::UidSmugglingReportJson(merged));
  }
  return reports;
}

struct SetupTiming {
  double total_s = 0;
  double generate_s = 0;
  double plan_s = 0;
};

Plan MakePlan(const Workload& w, uint64_t seed, const Dirs& dirs,
              SetupTiming* timing) {
  Plan plan;
  plan.options.base_seed = seed;
  plan.options.framework.catalog.popular_count = w.sites / 2;
  plan.options.framework.catalog.sensitive_count = w.sites - w.sites / 2;
  plan.options.framework.catalog_seed = w.catalog_seed;
  if (w.cold_cache || w.warm_cache) plan.options.cache_dir = dirs.cache.string();

  core::CrawlOptions crawl;
  if (w.spill) {
    crawl.stream.memory_budget_bytes = kSpillBudgetBytes;
    crawl.stream.spill_dir = dirs.spill.string();
  }
  int64_t start = util::SteadyNowNanos();
  std::vector<device::DeviceCohort> cohorts;
  if (w.cohorts > 0) {
    cohorts = device::PopulationGenerator::Generate(w.cohorts, seed);
  }
  timing->generate_s = SecondsSince(start);
  start = util::SteadyNowNanos();
  plan.jobs = core::FleetExecutor::PlanCampaign(w.browsers, cohorts, w.kinds,
                                                w.shards, crawl);
  timing->plan_s = SecondsSince(start);
  return plan;
}

// Fills the result cache by running the plan cold in a child process,
// so this process's peak RSS belongs to the replay alone. The child
// also records its reports' checksums: the replay must match them.
void Prefill(const Workload& w, const Plan& plan, const Dirs& dirs) {
  std::error_code ec;
  fs::remove_all(dirs.cache, ec);
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int rc = 1;
    try {
      core::FleetOptions options = plan.options;
      options.jobs = kWorkers;
      core::FleetExecutor executor(options);
      auto merged =
          core::FleetExecutor::MergeShards(executor.Run(plan.jobs));
      std::ofstream out(dirs.prefill_sums);
      for (const auto& [name, bytes] : Render(w, merged)) {
        out << name << " " << Checksum(bytes) << "\n";
      }
      rc = out ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "prefill: %s\n", e.what());
    }
    std::fflush(nullptr);
    _exit(rc);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("cache prefill failed");
  }
}

// Runs the plan's first job, uncached, and renders its reports, so lazy
// initialisation is done before anything is timed.
void WarmUp(const Workload& w, const Plan& plan) {
  core::FleetOptions options = plan.options;
  options.cache_dir.clear();
  core::FleetExecutor executor(options);
  auto merged = core::FleetExecutor::MergeShards(
      executor.Run({plan.jobs.front()}));
  Render(w, merged);
}

struct Iteration {
  bool traced = false;
  int workers = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double run_s = 0;
  int run_workers = 0;
  std::vector<double> job_seconds;
  size_t planned_jobs = 0;
  size_t merged_results = 0;
  uint64_t visits_attempted = 0;
  uint64_t visits_failed = 0;
  std::map<std::string, uint64_t> counters;  // exact work counters
  std::map<std::string, double> timers;      // histogram sums, seconds
  std::map<std::string, uint64_t> timer_calls;
  std::map<std::string, std::string> checksums;
  int64_t origin_ns = 0;
  std::vector<obs::SpanEvent> spans;
};

// Exact work counters: registry name -> benchmark name.
const std::vector<std::pair<const char*, const char*>>& CounterNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"panoptes_fleet_jobs_total", "core.fleet.jobs"},
      {"panoptes_fleet_quarantined_jobs_total", "core.fleet.quarantined"},
      {"panoptes_core_visits_total", "core.campaign.visits"},
      {"panoptes_core_idle_ticks_total", "core.campaign.idle_ticks"},
      {"panoptes_proxy_flows_total", "proxy.flows"},
      {"panoptes_proxy_request_bytes_total", "proxy.request_bytes"},
      {"panoptes_proxy_response_bytes_total", "proxy.response_bytes"},
      {"panoptes_ingest_flows_pushed_total", "core.ingest.flows_pushed"},
      {"panoptes_ingest_spill_segments_total", "core.ingest.spill_segments"},
      {"panoptes_ingest_spill_bytes_total", "core.ingest.spill_bytes"},
      {"panoptes_ingest_backpressure_stalls_total", "core.ingest.stalls"},
      {"panoptes_index_builds_total", "analysis.index.builds"},
      {"panoptes_index_indexed_flows_total", "analysis.index.indexed_flows"},
      {"panoptes_index_appends_total", "analysis.index.appends"},
      {"panoptes_cache_hits_total", "core.cache.hits"},
      {"panoptes_cache_misses_total", "core.cache.misses"},
      {"panoptes_cache_writes_total", "core.cache.writes"},
  };
  return names;
}

const std::vector<std::pair<const char*, const char*>>& HistogramNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"panoptes_cache_snapshot_read_seconds", "core.cache.read_s"},
      {"panoptes_cache_snapshot_write_seconds", "core.cache.write_s"},
  };
  return names;
}

Iteration RunIteration(const Workload& w, const Plan& plan, const Dirs& dirs,
                       int workers, bool traced) {
  std::error_code ec;
  if (w.cold_cache) fs::remove_all(dirs.cache, ec);
  if (w.spill) {
    fs::remove_all(dirs.spill, ec);
    fs::create_directories(dirs.spill);
  }
  core::FleetOptions options = plan.options;
  options.jobs = workers;
  core::FleetExecutor executor(options);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Tracer& tracer = obs::Tracer::Default();
  registry.Reset();
  tracer.Clear();
  tracer.SetEnabled(traced);

  Iteration it;
  it.traced = traced;
  it.workers = workers;
  it.planned_jobs = plan.jobs.size();
  double cpu_start = CpuSeconds();
  it.origin_ns = util::SteadyNowNanos();

  // Timed: the plan handed to Run -> every report rendered.
  core::FleetRunStats stats;
  std::vector<core::FleetJobResult> results;
  {
    obs::ScopedSpan span("bench.fleet_run", "bench");
    results = executor.Run(plan.jobs, &stats);
  }
  std::vector<core::FleetJobResult> merged;
  {
    obs::ScopedSpan span("bench.merge_shards", "bench");
    merged = core::FleetExecutor::MergeShards(std::move(results));
  }
  Reports reports = Render(w, merged);

  it.wall_s = SecondsSince(it.origin_ns);
  it.cpu_s = CpuSeconds() - cpu_start;
  tracer.SetEnabled(false);
  if (traced) it.spans = tracer.Snapshot();
  tracer.Clear();

  it.run_s = stats.wall_seconds;
  it.run_workers = stats.workers;
  it.job_seconds = std::move(stats.job_seconds);
  it.merged_results = merged.size();
  for (const auto& [name, bytes] : reports) {
    it.checksums[name] = Checksum(bytes);
    it.counters["analysis.export.report_bytes"] += bytes.size();
  }
  for (const auto& [metric, name] : CounterNames()) {
    it.counters[name] = registry.GetCounter(metric).Value();
  }
  for (const auto& [metric, name] : HistogramNames()) {
    const obs::Histogram& histogram = registry.GetHistogram(metric);
    it.timers[name] = histogram.Sum();
    it.timer_calls[name] = histogram.Count();
  }
  uint64_t stored = 0, lost = 0;
  for (const auto& result : merged) {
    if (result.crawl.has_value()) {
      stored += result.crawl->engine_flows->size() +
                result.crawl->native_flows->size();
      lost += result.crawl->ingest.flows_lost + result.crawl->ingest.flows_shed;
      for (const auto& visit : result.crawl->visits) {
        ++it.visits_attempted;
        if (!visit.ok) ++it.visits_failed;
      }
    }
    if (result.idle.has_value()) {
      stored += result.idle->native_flows->size();
      lost += result.idle->ingest.flows_lost + result.idle->ingest.flows_shed;
    }
  }
  it.counters["proxy.flows_stored"] = stored;
  it.counters["core.ingest.flows_lost"] = lost;
  it.counters["core.cache.bytes"] =
      w.cold_cache || w.warm_cache ? DirectoryBytes(dirs.cache) : 0;
  return it;
}

util::Json ToJson(const Iteration& it) {
  util::JsonObject o;
  o["traced"] = it.traced;
  o["workers"] = it.workers;
  o["wall_s"] = it.wall_s;
  o["cpu_s"] = it.cpu_s;
  o["run_s"] = it.run_s;
  o["run_workers"] = it.run_workers;
  o["planned_jobs"] = static_cast<uint64_t>(it.planned_jobs);
  o["merged_results"] = static_cast<uint64_t>(it.merged_results);
  o["visits_attempted"] = it.visits_attempted;
  o["visits_failed"] = it.visits_failed;
  util::JsonArray job_seconds;
  for (double s : it.job_seconds) job_seconds.emplace_back(s);
  o["job_seconds"] = std::move(job_seconds);
  util::JsonObject counters, timers, timer_calls, checksums;
  for (const auto& [k, v] : it.counters) counters[k] = v;
  for (const auto& [k, v] : it.timers) timers[k] = v;
  for (const auto& [k, v] : it.timer_calls) timer_calls[k] = v;
  for (const auto& [k, v] : it.checksums) checksums[k] = v;
  o["counters"] = std::move(counters);
  o["timers"] = std::move(timers);
  o["timer_calls"] = std::move(timer_calls);
  o["checksums"] = std::move(checksums);
  if (it.traced) {
    // [name, tid, start_ns relative to the iteration start, duration_ns]
    util::JsonArray spans;
    spans.reserve(it.spans.size());
    for (const auto& span : it.spans) {
      spans.emplace_back(util::JsonArray{
          util::Json(span.name), util::Json(static_cast<uint64_t>(span.tid)),
          util::Json(span.start_ns - it.origin_ns),
          util::Json(span.duration_ns)});
    }
    o["spans"] = std::move(spans);
  }
  return util::Json(std::move(o));
}

std::map<std::string, std::string> ReadSums(const fs::path& path) {
  std::map<std::string, std::string> sums;
  std::ifstream in(path);
  std::string name, sum;
  while (in >> name >> sum) sums[name] = sum;
  return sums;
}

int Run(const util::Args& args) {
  auto workload = FindWorkload(args.OptionOr("workload", ""));
  auto out_path = args.Option("out");
  auto work_arg = args.Option("work-dir");
  if (!workload || !out_path || !work_arg) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload paper_fleet|"
                 "population_spill|warm_replay --work-dir DIR --out FILE "
                 "[--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  const Workload& w = *workload;
  const uint64_t seed =
      static_cast<uint64_t>(args.IntOptionOr("seed", 20231024));
  const double seconds = static_cast<double>(args.IntOptionOr("seconds", 10));
  const bool trace = args.IntOptionOr("trace", 0) != 0;
  const fs::path work(*work_arg);
  fs::create_directories(work);
  const Dirs dirs{work / "cache", work / "spill", work / "prefill.sums"};
  if (w.spill) fs::create_directories(dirs.spill);

  // Set-up: population, plan and a warm-up job, repeated so its median
  // is steady; then the cache prefill, once, as it is a whole cold run.
  Plan plan;
  std::vector<SetupTiming> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetupTiming timing;
    int64_t start = util::SteadyNowNanos();
    plan = MakePlan(w, seed, dirs, &timing);
    WarmUp(w, plan);
    timing.total_s = SecondsSince(start);
    setups.push_back(timing);
  }
  double prefill_s = 0;
  if (w.warm_cache) {
    int64_t start = util::SteadyNowNanos();
    Prefill(w, plan, dirs);
    prefill_s = SecondsSince(start);
  }
  std::fprintf(stderr, "%s: %zu jobs planned, set-up %.3fs + prefill %.3fs\n",
               w.name.c_str(), plan.jobs.size(), setups.back().total_s,
               prefill_s);

  std::vector<Iteration> iterations;
  int64_t start = util::SteadyNowNanos();
  auto add = [&](int workers, bool traced) {
    iterations.push_back(RunIteration(w, plan, dirs, workers, traced));
    const Iteration& it = iterations.back();
    std::fprintf(stderr, "  %s %d workers: wall %.3fs cpu %.3fs\n",
                 traced ? "traced  " : "untraced", workers, it.wall_s,
                 it.cpu_s);
  };
  // Traced pairs alternate which side runs first, so drift over the run
  // (heap growth, page cache) does not land on one side only.
  for (bool traced_first = false;
       SecondsSince(start) < seconds || iterations.size() < 2;
       traced_first = !traced_first) {
    add(kWorkers, trace && traced_first);
    if (trace) add(kWorkers, !traced_first);
  }
  if (trace) add(1, false);

  util::JsonObject root;
  root["workload"] = w.name;
  root["seed"] = seed;
  root["trace"] = trace;
  root["workers"] = kWorkers;
  root["expected_results"] = static_cast<uint64_t>(
      w.browsers.size() * w.kinds.size() *
      static_cast<size_t>(std::max(w.cohorts, 1)));
  root["cold_cache"] = w.cold_cache;
  root["warm_cache"] = w.warm_cache;
  root["spill"] = w.spill;
  root["peak_rss_kib"] = PeakRssKib();
  util::JsonObject machine;
  machine["nproc"] = static_cast<uint64_t>(std::thread::hardware_concurrency());
  machine["compiler"] = PERFBENCH_COMPILER;
  machine["build_type"] = PERFBENCH_BUILD_TYPE;
  root["machine"] = std::move(machine);
  // Every repetition's timings; run.py takes the medians.
  util::JsonObject setup;
  util::JsonArray totals, generate, planning;
  for (const auto& s : setups) {
    totals.emplace_back(s.total_s);
    generate.emplace_back(s.generate_s);
    planning.emplace_back(s.plan_s);
  }
  setup["total_s"] = std::move(totals);
  setup["generate_s"] = std::move(generate);
  setup["plan_s"] = std::move(planning);
  setup["prefill_s"] = prefill_s;
  root["setup"] = std::move(setup);
  if (w.warm_cache) {
    util::JsonObject sums;
    for (const auto& [k, v] : ReadSums(dirs.prefill_sums)) sums[k] = v;
    root["prefill_checksums"] = std::move(sums);
  }
  util::JsonArray its;
  for (const auto& it : iterations) its.push_back(ToJson(it));
  root["iterations"] = std::move(its);

  std::ofstream out(*out_path, std::ios::binary);
  out << util::Json(std::move(root)).Dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path->c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(util::Args::Parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
