// Ablation A1: what the taint split buys over destination heuristics.
//
// Related tools (bare mitmproxy, PCAPdroid, Lumen) observe the same
// per-app traffic but cannot tell which requests the page made vs the
// browser app. The naive splitter classifies by destination: visited
// sites and well-known web third parties → engine, the rest → native.
// It systematically hides exactly the paper's headline traffic —
// browsers natively calling the same ad-tech hosts that pages embed.
#include "analysis/naive_split.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "util/rng.h"

using namespace panoptes;

int main() {
  bench::BenchReport bench_report("ablation_split");
  bench::WallTimer bench_timer;
  bench::PrintHeader(
      "Ablation A1 — taint split vs destination heuristic",
      "no published number; demonstrates why Panoptes taints requests "
      "instead of guessing by destination");

  core::FrameworkOptions options = bench::DefaultOptions();
  options.catalog.popular_count = 60;
  options.catalog.sensitive_count = 40;
  core::Framework framework(options);
  auto sites = bench::AllSites(framework);

  std::set<std::string> site_hosts;
  for (const auto* site : sites) site_hosts.insert(site->hostname);
  analysis::NaiveSplitter splitter(site_hosts);

  analysis::TextTable table({"Browser", "Flows", "Heuristic accuracy",
                             "Native hidden as engine",
                             "Engine mistaken as native"});
  uint64_t total_hidden = 0;
  bench::ForEachBrowserCrawl(
      framework, sites, {}, [&](const core::CrawlResult& result) {
        auto score =
            splitter.Evaluate(*result.engine_index, *result.native_index);
        total_hidden += score.native_as_engine;
        table.AddRow({result.browser, std::to_string(score.total),
                      analysis::Percent(score.accuracy),
                      std::to_string(score.native_as_engine),
                      std::to_string(score.engine_as_native)});
      });
  std::printf("%s\n", table.Render().c_str());
  std::printf("native tracking requests a destination-only monitor "
              "would misattribute to the page: %llu\n",
              (unsigned long long)total_hidden);
  bench_report.Metric("native_hidden_as_engine",
                      static_cast<double>(total_hidden));
  bench_report.Checksum("table", util::HashString(table.Render()));
  bench_report.Metric("wall_seconds", bench_timer.Seconds());
  bench_report.Write();
  return 0;
}
