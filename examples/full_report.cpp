// Audits every browser and writes a single Markdown report — the
// deliverable a DPA / privacy team would actually read.
//
//   ./build/examples/full_report [--sites N] [--jobs N] [--out REPORT.md]
//
// The audits run as one fleet plan, a crawl job per browser, and
// --jobs sets the fleet's worker count: the browsers crawl in parallel.
// Any value produces a byte-identical report (pinned by the Determinism
// suite), so it is purely a wall-clock knob.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "analysis/audit.h"
#include "browser/profiles.h"
#include "util/args.h"

using namespace panoptes;

int main(int argc, char** argv) {
  auto args = util::Args::Parse(argc, argv);
  int site_count = static_cast<int>(args.IntOptionOr("sites", 60));

  core::FleetOptions options;
  options.jobs =
      std::max<int>(1, static_cast<int>(args.IntOptionOr("jobs", 1)));
  options.framework.catalog.popular_count = site_count / 2;
  options.framework.catalog.sensitive_count = site_count - site_count / 2;

  const auto browsers = browser::AllBrowserSpecs();
  std::fprintf(stderr, "auditing %zu browsers on %d workers...\n",
               browsers.size(), options.jobs);
  auto reports = analysis::AuditBrowsers(options, browsers,
                                         analysis::HostsList::Default());

  std::string markdown = analysis::RenderAuditMarkdown(reports);
  std::string out_path = args.OptionOr("out", "");
  if (out_path.empty()) {
    std::printf("%s", markdown.c_str());
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << markdown;
    std::printf("wrote %s (%zu browsers, %d sites each)\n",
                out_path.c_str(), reports.size(), site_count);
  }
  return 0;
}
