// BM_AnalysisIndex: the full_report analysis battery over one crawl,
// measured two ways. The legacy path runs the store-scanning reference
// analyzers of tests/oracle, which rescan the raw flow vectors once per
// analyzer (re-parsing query strings, re-decoding Base64, re-parsing
// JSON bodies each time); the indexed path builds one analysis::FlowIndex
// per store and hands every analyzer the pre-parsed columns. The indexed
// timing INCLUDES the index builds, so the reported ratio is the honest
// end-to-end speedup a full_report run sees.
//
// Every variant prints a `checksum` counter and verifies it against the
// legacy oracle (or, for the index build, against the capture-time
// index's bytes): a speedup that changes a byte of output is a bug, not a
// win. The checked value comes from one call after the timing loop, so
// the check holds even when a slow build runs the loop zero times. Any
// mismatch makes the binary exit non-zero so CI's bench smoke step
// fails hard even though the perf numbers stay advisory.
//
// BM_AnalysisIndexBuild bounds the index's own cost: the work a warm
// replay does per store, since snapshots persist stores, not indexes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <set>

#include "analysis/dns_leakage.h"
#include "analysis/flow_index.h"
#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/hostslist.h"
#include "analysis/naive_split.h"
#include "analysis/pii.h"
#include "analysis/referer.h"
#include "analysis/stats.h"
#include "analysis/timeline.h"
#include "bench_common.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/framework.h"
#include "net/psl.h"
#include "oracle/store_scans.h"
#include "util/binio.h"
#include "util/rng.h"

using namespace panoptes;

namespace {

// Sticky failure flag: main() exits non-zero if any variant's checksum
// disagreed with its oracle. SkipWithError alone is not enough — old
// google-benchmark builds still exit 0 on skipped benchmarks.
bool g_checksum_mismatch = false;

void ReportChecksum(benchmark::State& state, uint64_t got, uint64_t want) {
  state.counters["checksum"] =
      benchmark::Counter(static_cast<double>(got));
  if (got != want) {
    g_checksum_mismatch = true;
    state.SkipWithError("checksum mismatch");
  }
}

// One crawl, captured once and shared by every benchmark. The engine
// store keeps headers (compact_engine_store = false) so the Referer
// analysis runs for real, matching AuditBrowsers.
struct Capture {
  std::unique_ptr<core::Framework> framework;
  core::CrawlResult result;
  std::vector<net::Url> visited;
  std::set<std::string> site_hosts;
  analysis::GeoIpDb geo;
  analysis::HostsList hosts_list = analysis::HostsList::Default();
  device::DeviceProfile profile = device::DeviceProfile::PaperTestbed();
};

Capture& GetCapture() {
  static Capture* capture = [] {
    auto* c = new Capture;
    core::FrameworkOptions options;
    options.catalog.popular_count = 30;
    options.catalog.sensitive_count = 10;
    c->framework = std::make_unique<core::Framework>(options);
    std::vector<const web::Site*> sites;
    for (const auto& site : c->framework->catalog().sites()) {
      sites.push_back(&site);
    }
    core::CrawlOptions crawl_options;
    crawl_options.compact_engine_store = false;
    c->result = core::RunCrawl(*c->framework, *browser::FindSpec("Yandex"),
                               sites, crawl_options);
    for (const auto* site : sites) {
      c->visited.push_back(site->landing_url);
      c->site_hosts.emplace(site->landing_url.host());
    }
    c->geo = analysis::GeoIpDb(c->framework->geo_plan().ranges());
    return c;
  }();
  return *capture;
}

// The analyzer battery full_report runs per browser, on the
// store-scanning reference analyzers. Returns a checksum so nothing is
// dead code.
uint64_t LegacyBattery(const Capture& c) {
  const proxy::FlowStore& engine = *c.result.engine_flows;
  const proxy::FlowStore& native = *c.result.native_flows;
  uint64_t checksum = 0;

  analysis::PiiScanner scanner(c.profile);
  checksum += oracle::ScanPii(scanner, native).LeakCount();

  analysis::HistoryLeakDetector detector(c.visited);
  checksum += oracle::ScanHistoryLeaks(detector, native).size();
  checksum += oracle::ScanHistoryLeaks(detector, engine, true).size();

  checksum += oracle::CountriesContacted(native, c.geo).size();
  checksum += oracle::AnalyzeRefererLeakage(engine).leaking_requests;
  checksum += oracle::AnalyzeDnsLeakage(native).queries;

  analysis::NaiveSplitter splitter(c.site_hosts);
  checksum += oracle::EvaluateSplit(splitter, engine, native).correct;

  checksum += engine.RequestBytes() + native.RequestBytes();
  for (const auto& host : native.DistinctHosts()) {
    checksum += net::RegistrableDomain(host).size();
    checksum += c.hosts_list.IsAdRelated(host) ? 1 : 0;
  }
  return checksum;
}

// The legacy battery is the oracle every other variant must match;
// computed once, outside any timing loop.
uint64_t OracleChecksum() {
  static const uint64_t checksum = LegacyBattery(GetCapture());
  return checksum;
}

// The same battery on the FlowIndex overloads, over the given indexes.
uint64_t IndexedBattery(const Capture& c,
                        const analysis::FlowIndex& engine_index,
                        const analysis::FlowIndex& native_index) {
  const proxy::FlowStore& engine = *c.result.engine_flows;
  const proxy::FlowStore& native = *c.result.native_flows;
  uint64_t checksum = 0;

  analysis::PiiScanner scanner(c.profile);
  checksum += scanner.Scan(native_index).LeakCount();

  analysis::HistoryLeakDetector detector(c.visited);
  checksum += detector.Scan(native, native_index).size();
  checksum += detector.Scan(engine, engine_index, true).size();

  checksum += analysis::CountriesContacted(native_index, c.geo).size();
  checksum +=
      analysis::AnalyzeRefererLeakage(engine, engine_index).leaking_requests;
  checksum += analysis::AnalyzeDnsLeakage(native_index).queries;

  analysis::NaiveSplitter splitter(c.site_hosts);
  checksum += splitter.Evaluate(engine_index, native_index).correct;

  checksum += engine_index.request_bytes_total() +
              native_index.request_bytes_total();
  for (const auto& host : native_index.hosts()) {
    checksum += host.domain.size();
    checksum += c.hosts_list.IsAdRelated(host.raw) ? 1 : 0;
  }
  return checksum;
}

// `build_indexes` charges the two index builds to this timing;
// full_report amortizes them across analyzers exactly like this.
// Otherwise the battery reads the capture's own indexes.
uint64_t IndexedBattery(const Capture& c, bool build_indexes) {
  if (!build_indexes) {
    return IndexedBattery(c, *c.result.engine_index, *c.result.native_index);
  }
  return IndexedBattery(c, analysis::FlowIndex::Build(*c.result.engine_flows),
                        analysis::FlowIndex::Build(*c.result.native_flows));
}

// Stable hash of an index's serialized bytes — the byte-equivalence
// probe for the build variant.
uint64_t IndexBytesHash(const analysis::FlowIndex& index) {
  util::BinWriter out;
  index.SerializeTo(out);
  return util::HashString(out.Take());
}

void BM_AnalysisIndexLegacyScans(benchmark::State& state) {
  Capture& c = GetCapture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(LegacyBattery(c));
  }
  ReportChecksum(state, LegacyBattery(c), OracleChecksum());
}
BENCHMARK(BM_AnalysisIndexLegacyScans)->Unit(benchmark::kMicrosecond);

void BM_AnalysisIndex(benchmark::State& state) {
  Capture& c = GetCapture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(IndexedBattery(c, /*build_indexes=*/true));
  }
  // The two batteries must agree, or the comparison is meaningless.
  ReportChecksum(state, IndexedBattery(c, /*build_indexes=*/true),
                 OracleChecksum());
}
BENCHMARK(BM_AnalysisIndex)->Unit(benchmark::kMicrosecond);

// Analyzers only, indexes prebuilt — the cache-hit path, where the
// index was rebuilt when the job's snapshot was read.
void BM_AnalysisIndexPrebuilt(benchmark::State& state) {
  Capture& c = GetCapture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(IndexedBattery(c, /*build_indexes=*/false));
  }
  ReportChecksum(state, IndexedBattery(c, /*build_indexes=*/false),
                 OracleChecksum());
}
BENCHMARK(BM_AnalysisIndexPrebuilt)->Unit(benchmark::kMicrosecond);

void BM_AnalysisIndexBuild(benchmark::State& state) {
  Capture& c = GetCapture();
  for (auto _ : state) {
    auto index = analysis::FlowIndex::Build(*c.result.native_flows);
    benchmark::DoNotOptimize(index);
  }
  state.counters["flows"] = benchmark::Counter(
      static_cast<double>(c.result.native_flows->size()));
  // A rebuild must be byte-identical to the capture-time index.
  auto rebuilt = analysis::FlowIndex::Build(*c.result.native_flows);
  ReportChecksum(state, IndexBytesHash(rebuilt),
                 IndexBytesHash(*c.result.native_index));
}
BENCHMARK(BM_AnalysisIndexBuild)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main: after the google-benchmark run, print an interleaved
// steady-clock median comparison (legacy vs indexed, alternating reps
// so drift cancels — see bench_common.h), then exit non-zero if any
// variant's checksum disagreed with its oracle. CI treats the timing
// as advisory and the exit code as mandatory.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  Capture& c = GetCapture();
  const uint64_t want = OracleChecksum();
  uint64_t legacy_sum = 0;
  uint64_t indexed_sum = 0;
  bench::InterleavedTimer timer;
  timer.Add("legacy_scans", [&] { legacy_sum = LegacyBattery(c); });
  timer.Add("indexed_e2e",
            [&] { indexed_sum = IndexedBattery(c, /*build_indexes=*/true); });
  timer.Run(/*reps=*/9);
  std::printf("\n--- interleaved medians (steady clock) ---\n");
  timer.Print();
  double legacy_s = timer.MedianSeconds("legacy_scans");
  double indexed_s = timer.MedianSeconds("indexed_e2e");
  if (indexed_s > 0) {
    std::printf("speedup_median=%.2fx\n", legacy_s / indexed_s);
  }
  if (legacy_sum != want || indexed_sum != want) g_checksum_mismatch = true;
  std::printf("checksum=%llu %s\n",
              static_cast<unsigned long long>(want),
              g_checksum_mismatch ? "MISMATCH" : "OK");

  bench::BenchReport bench_report("analysis_index");
  timer.Report(bench_report);
  if (indexed_s > 0) {
    bench_report.Metric("speedup_median", legacy_s / indexed_s);
  }
  bench_report.Metric("checksum_ok", g_checksum_mismatch ? 0 : 1);
  bench_report.Checksum("battery_oracle", want);
  bench_report.Write();
  return g_checksum_mismatch ? 1 : 0;
}
