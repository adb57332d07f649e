// P1: micro-benchmarks of the measurement pipeline's hot paths
// (google-benchmark). These bound the framework's own overhead: the
// proxy + taint filter must be cheap relative to the traffic it
// observes, or the instrument would distort the measurement.
#include <benchmark/benchmark.h>

#include "analysis/hostslist.h"
#include "analysis/pii.h"
#include "bench_common.h"
#include "browser/profiles.h"
#include "core/campaign.h"
#include "core/fleet.h"
#include "core/framework.h"
#include "net/psl.h"
#include "net/url.h"
#include "util/base64.h"

using namespace panoptes;

namespace {

void BM_UrlParse(benchmark::State& state) {
  std::string text =
      "https://fastlane.rubiconproject.com/a/api/fastlane.json?account_id="
      "12345&site_id=67890&zone_id=13579&size_id=15&p_pos=atf&rand=0.837";
  for (auto _ : state) {
    auto url = net::Url::Parse(text);
    benchmark::DoNotOptimize(url);
  }
}
BENCHMARK(BM_UrlParse);

void BM_Base64RoundTrip(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'q');
  for (auto _ : state) {
    auto encoded = util::Base64Encode(payload);
    auto decoded = util::Base64Decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Base64RoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RegistrableDomain(benchmark::State& state) {
  for (auto _ : state) {
    auto domain = net::RegistrableDomain("a.b.tracker.example.co.uk");
    benchmark::DoNotOptimize(domain);
  }
}
BENCHMARK(BM_RegistrableDomain);

void BM_HostsListLookup(benchmark::State& state) {
  auto list = analysis::HostsList::Default();
  for (auto _ : state) {
    bool hit = list.IsAdRelated("fastlane.rubiconproject.com");
    bool miss = list.IsAdRelated("static.innocent-cdn.com");
    benchmark::DoNotOptimize(hit);
    benchmark::DoNotOptimize(miss);
  }
}
BENCHMARK(BM_HostsListLookup);

void BM_PiiScanFlow(benchmark::State& state) {
  analysis::PiiScanner scanner(device::DeviceProfile::PaperTestbed());
  proxy::Flow flow;
  flow.url = net::Url::MustParse(
      "https://api.browser.yandex.ru/track?uuid=3f2b9a64-5e1c-4d7a-9b0e-"
      "2f6c8d1a7e43&host=example.com&devtype=TABLET&manuf=Samsung&res="
      "1200x1920&dpi=240&locale=el-GR&net=WIFI");
  for (auto _ : state) {
    analysis::PiiReport report;
    scanner.ScanFlow(flow, report);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_PiiScanFlow);

// One full instrumented visit (engine + native + proxy + stores): the
// end-to-end unit of a crawl campaign.
void BM_InstrumentedVisit(benchmark::State& state) {
  core::FrameworkOptions options;
  options.catalog.popular_count = 10;
  options.catalog.sensitive_count = 0;
  core::Framework framework(options);
  const auto* spec = browser::FindSpec("Edge");
  auto& runtime = framework.PrepareBrowser(*spec);
  proxy::FlowStore engine_store(true), native_store;
  framework.taint_addon().SetSinks(&engine_store, &native_store);
  runtime.Startup();
  const auto& site = framework.catalog().sites().front();

  for (auto _ : state) {
    auto outcome = runtime.Navigate(site.landing_url);
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["flows/visit"] = benchmark::Counter(
      static_cast<double>(engine_store.size() + native_store.size()) /
      static_cast<double>(state.iterations()));
  framework.taint_addon().SetSinks(nullptr, nullptr);
}
BENCHMARK(BM_InstrumentedVisit)->Unit(benchmark::kMicrosecond);

// Fleet scaling: the full Table 1 roster crawled over a small catalog,
// sharded across 1/2/4/8 worker threads. The campaign is embarrassingly
// parallel (private Framework per job), so wall-clock should shrink
// toward 1/N on an N-core machine while the merged report stays
// byte-identical (tests/core_fleet_test.cpp holds that invariant).
void BM_FleetCrawl(benchmark::State& state) {
  core::FleetOptions options;
  options.jobs = static_cast<int>(state.range(0));
  options.framework.catalog.popular_count = 4;
  options.framework.catalog.sensitive_count = 2;
  core::FleetExecutor executor(options);
  auto jobs = core::FleetExecutor::PlanCampaign(
      browser::AllBrowserSpecs(), {core::CampaignKind::kCrawl}, 2);

  uint64_t flows = 0;
  for (auto _ : state) {
    auto results = executor.Run(jobs);
    flows = 0;
    for (const auto& result : results) {
      flows += result.crawl->EngineRequestCount() +
               result.crawl->NativeRequestCount();
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["jobs"] =
      benchmark::Counter(static_cast<double>(jobs.size()));
  state.counters["flows/run"] = benchmark::Counter(static_cast<double>(flows));
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetCrawl)
    ->ArgName("threads")
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace

// Custom main: after the google-benchmark pass, time fixed-size hot
// path batches with the interleaved median and write the observatory
// report; the checksum pins the URL parser's output bytes.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  const std::string url_text =
      "https://fastlane.rubiconproject.com/a/api/fastlane.json?account_id="
      "12345&site_id=67890&zone_id=13579&size_id=15&p_pos=atf&rand=0.837";
  analysis::PiiScanner scanner(device::DeviceProfile::PaperTestbed());
  proxy::Flow pii_flow;
  pii_flow.url = net::Url::MustParse(
      "https://api.browser.yandex.ru/track?uuid=3f2b9a64-5e1c-4d7a-9b0e-"
      "2f6c8d1a7e43&host=example.com&devtype=TABLET&manuf=Samsung&res="
      "1200x1920&dpi=240&locale=el-GR&net=WIFI");

  bench::InterleavedTimer timer;
  timer.Add("url_parse_10k", [&] {
    for (int i = 0; i < 10000; ++i) {
      auto url = net::Url::Parse(url_text);
      benchmark::DoNotOptimize(url);
    }
  });
  timer.Add("pii_scan_10k", [&] {
    for (int i = 0; i < 10000; ++i) {
      analysis::PiiReport report;
      scanner.ScanFlow(pii_flow, report);
      benchmark::DoNotOptimize(report);
    }
  });
  timer.Run(/*reps=*/9);
  std::printf("\n--- pipeline batches (interleaved medians) ---\n");
  timer.Print();

  bench::BenchReport bench_report("perf_pipeline");
  timer.Report(bench_report);
  auto parsed = net::Url::Parse(url_text);
  bench_report.Checksum(
      "url_roundtrip",
      util::HashString(parsed ? parsed->Serialize() : std::string()));
  bench_report.Write();
  return 0;
}
