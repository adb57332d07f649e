// Ablation A4: why navigation is driven through CDP/Frida instead of
// the address bar (§2.1). Typing a URL fires one autocomplete suggest
// query per keystroke — native traffic that has nothing to do with the
// browser's own tracking and would contaminate every figure. The
// related work [35] (Leith) found identifiers precisely in these
// autocomplete flows; the paper's contribution is to exclude them by
// construction.
#include "analysis/report.h"
#include "bench_common.h"
#include "util/rng.h"

using namespace panoptes;

int main() {
  bench::BenchReport bench_report("ablation_autocomplete");
  bench::WallTimer bench_timer;
  bench::PrintHeader(
      "Ablation A4 — address-bar typing vs CDP navigation",
      "paper §2.1: navigating via CDP/Frida keeps autocomplete out of "
      "the traces");

  core::FrameworkOptions options = bench::DefaultOptions();
  options.catalog.popular_count = 20;
  options.catalog.sensitive_count = 0;
  core::Framework framework(options);
  auto sites = bench::AllSites(framework);

  analysis::TextTable table({"Browser", "Native (CDP navigation)",
                             "Native (typed URLs)", "Pollution"});
  for (const char* name : {"Chrome", "Yandex", "DuckDuckGo"}) {
    const auto* spec = browser::FindSpec(name);

    // The paper's way: navigate through the driver.
    auto clean = core::RunCrawl(framework, *spec, sites);
    uint64_t clean_native = clean.native_flows->size();

    // The naive way: type every URL into the address bar first.
    proxy::FlowStore typed_store;
    auto& runtime = framework.PrepareBrowser(*spec);
    framework.taint_addon().SetSinks(nullptr, &typed_store);
    runtime.Startup();
    for (const auto* site : sites) {
      runtime.TypeInAddressBar(site->hostname);
      runtime.Navigate(site->landing_url);
    }
    framework.taint_addon().SetSinks(nullptr, nullptr);
    framework.TeardownBrowser();

    uint64_t typed_native = typed_store.size();
    double pollution =
        clean_native == 0
            ? 0
            : static_cast<double>(typed_native) / clean_native - 1.0;
    table.AddRow({name, std::to_string(clean_native),
                  std::to_string(typed_native),
                  "+" + analysis::Percent(pollution)});

    // The suggest queries also leak the hostname being typed, prefix
    // by prefix — show one example.
    if (name == std::string("Yandex")) {
      for (const auto& flow : typed_store.ToHost(spec->suggest_host)) {
        if (flow.url.QueryParam("q")) {
          std::printf("example polluting query: %.*s\n",
                      static_cast<int>(flow.url.text().size()),
                      flow.url.text().data());
          break;
        }
      }
    }
  }
  std::printf("\n%s\n", table.Render().c_str());
  bench_report.Checksum("table", util::HashString(table.Render()));
  bench_report.Metric("wall_seconds", bench_timer.Seconds());
  bench_report.Write();
  return 0;
}
