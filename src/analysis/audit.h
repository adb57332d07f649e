// One-call browser audit: everything the paper measures about a
// browser, gathered from a single crawl into one structure, plus a
// Markdown renderer. This is the API a downstream adopter (regulator,
// vendor QA, researcher) calls; the bench binaries print the same
// numbers figure by figure.
#pragma once

#include <string>
#include <vector>

#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/hostslist.h"
#include "analysis/pii.h"
#include "analysis/referer.h"
#include "analysis/stats.h"
#include "analysis/uid_smuggling.h"
#include "browser/spec.h"
#include "core/fleet.h"

namespace panoptes::analysis {

struct BrowserAuditReport {
  std::string browser;
  std::string version;
  size_t sites_visited = 0;

  RequestStats requests;       // Fig 2 row
  VolumeStats volume;          // Fig 4 row
  DomainStats domains;         // Fig 3 row
  PiiReport pii;               // Table 2 row
  std::vector<LeakFinding> native_leaks;   // §3.2
  std::vector<LeakFinding> engine_leaks;   // §3.2 (UC-style injection)
  std::vector<CountryShare> countries;     // §3.4
  RefererReport referer;                   // classic engine-side channel
  UidSmugglingReport smuggling;            // cross-site identifier joins
  device::NetworkStackStats stack;         // pinning/QUIC accounting

  bool LeaksFullUrl() const;
  bool ContactsNonEu() const;
};

// Audits each browser from one crawl of the whole catalog, run as a
// fleet plan: one single-shard crawl job per browser, in the given order,
// with the engine store kept whole for the Referer analysis. `options`
// sets the catalog, seed, workers and cache. The worker that ran a crawl
// runs its analyses one after another (PII against the job's cohort
// profile, countries against the testbed's geo plan) and drops it, so
// browsers are crawled and analysed in parallel. Reports come back in
// browser order and are byte-identical at any worker count. A job that
// captured nothing reports only its name and version.
std::vector<BrowserAuditReport> AuditBrowsers(
    const core::FleetOptions& options,
    const std::vector<browser::BrowserSpec>& browsers,
    const HostsList& hosts_list);

// Renders audits as a Markdown document (one section per browser plus
// a comparison table).
std::string RenderAuditMarkdown(
    const std::vector<BrowserAuditReport>& reports);

}  // namespace panoptes::analysis
