// §3.2 (incognito): browsers that leak the browsing history keep
// leaking it in incognito mode. Yandex and QQ offer no incognito mode
// at all (footnote 5); Edge, UC International and Opera do — and leak
// anyway.
#include "analysis/historyleak.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "util/rng.h"

using namespace panoptes;

int main() {
  bench::BenchReport bench_report("sec32_incognito");
  bench::WallTimer bench_timer;
  bench::PrintHeader(
      "§3.2 — incognito mode",
      "Edge / UC International / Opera keep leaking in incognito; "
      "Yandex and QQ have no incognito mode");

  core::FrameworkOptions options = bench::DefaultOptions();
  options.catalog.popular_count = 40;
  options.catalog.sensitive_count = 0;
  core::Framework framework(options);
  auto sites = bench::AllSites(framework);

  std::vector<net::Url> visited;
  for (const auto* site : sites) visited.push_back(site->landing_url);
  analysis::HistoryLeakDetector detector(visited);

  analysis::TextTable table({"Browser", "Incognito available",
                             "Leaks (normal)", "Leaks (incognito)",
                             "Verdict"});

  core::CrawlOptions normal;
  core::CrawlOptions incognito;
  incognito.incognito = true;

  int still_leaking = 0;
  for (const char* name :
       {"Edge", "UC International", "Opera", "Yandex", "QQ"}) {
    const auto* spec = browser::FindSpec(name);
    auto normal_result = core::RunCrawl(framework, *spec, sites, normal);
    auto incog_result = core::RunCrawl(framework, *spec, sites, incognito);

    auto count_leaks = [&](const core::CrawlResult& result) {
      size_t n = 0;
      for (const auto& side : result.Sides()) {
        n += detector.Scan(side.flows, side.index, side.engine).size();
      }
      return n;
    };
    size_t normal_leaks = count_leaks(normal_result);
    size_t incog_leaks = count_leaks(incog_result);
    bool leaks_in_incognito = incog_leaks > 0;
    if (leaks_in_incognito) ++still_leaking;

    std::string verdict;
    if (!spec->has_incognito) {
      verdict = "no incognito mode to hide in";
    } else if (leaks_in_incognito) {
      verdict = "incognito does NOT stop the leak";
    } else {
      verdict = "incognito stops the leak";
    }
    table.AddRow({spec->name, spec->has_incognito ? "yes" : "no",
                  std::to_string(normal_leaks), std::to_string(incog_leaks),
                  verdict});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("history-leaking browsers still leaking under the "
              "incognito request: %d / 5 (paper: all)\n",
              still_leaking);
  bench_report.Metric("still_leaking_incognito", still_leaking);
  bench_report.Checksum("table", util::HashString(table.Render()));
  bench_report.Metric("wall_seconds", bench_timer.Seconds());
  bench_report.Write();
  return still_leaking == 5 ? 0 : 1;
}
