#include "analysis/audit.h"

#include "analysis/flow_index.h"
#include "analysis/report.h"

namespace panoptes::analysis {

bool BrowserAuditReport::LeaksFullUrl() const {
  for (const auto* findings : {&native_leaks, &engine_leaks}) {
    for (const auto& leak : *findings) {
      if (leak.granularity == LeakGranularity::kFullUrl) return true;
    }
  }
  return false;
}

bool BrowserAuditReport::ContactsNonEu() const {
  for (const auto& share : countries) {
    if (!share.eu_member) return true;
  }
  return false;
}

std::vector<BrowserAuditReport> AuditBrowsers(
    const core::FleetOptions& options,
    const std::vector<browser::BrowserSpec>& browsers,
    const HostsList& hosts_list) {
  core::CrawlOptions crawl_options;
  crawl_options.compact_engine_store = false;  // Referer analysis
  auto jobs = core::FleetExecutor::PlanCampaign(
      browsers, {core::CampaignKind::kCrawl}, 1, crawl_options);
  core::FleetExecutor executor(options);

  const core::Testbed& testbed = *executor.testbed();
  const size_t site_count = testbed.world()->catalog().sites().size();
  GeoIpDb geo(testbed.geo_plan().ranges());
  std::vector<net::Url> visited;
  visited.reserve(site_count);
  for (const auto& site : testbed.world()->catalog().sites()) {
    visited.push_back(site.landing_url);
  }
  HistoryLeakDetector detector(std::move(visited));

  // Each worker analyses the crawl it just ran and drops it; the
  // analyses share only const inputs and write their own report.
  std::vector<BrowserAuditReport> reports(jobs.size());
  executor.RunEach(jobs, [&](size_t index,
                             core::FleetJobResult&& job_result) {
    const browser::BrowserSpec& spec = job_result.job.spec;
    BrowserAuditReport& report = reports[index];
    report.browser = spec.name;
    report.version = spec.version;
    if (!job_result.crawl.has_value()) return;
    const core::CrawlResult& result = *job_result.crawl;
    report.sites_visited = site_count;
    report.stack = result.stack_stats;

    // The crawl indexed both stores at capture end; every analysis
    // below consumes the pre-parsed columns.
    report.requests = ComputeRequestStats(result);
    report.volume = ComputeVolumeStats(result);
    report.domains =
        ComputeDomainStats(result, VendorDomainsFor(spec.name), hosts_list);
    report.pii = PiiScanner(job_result.job.cohort.profile)
                     .Scan(*result.native_index);
    report.native_leaks =
        detector.Scan(*result.native_flows, *result.native_index);
    report.engine_leaks =
        detector.Scan(*result.engine_flows, *result.engine_index, true);
    report.countries = CountriesContacted(*result.native_index, geo);
    report.referer =
        AnalyzeRefererLeakage(*result.engine_flows, *result.engine_index);
    report.smuggling =
        AnalyzeUidSmuggling(*result.engine_flows, *result.engine_index,
                            *result.native_flows, *result.native_index);
  });
  return reports;
}

std::string RenderAuditMarkdown(
    const std::vector<BrowserAuditReport>& reports) {
  std::string out = "# Panoptes browser audit\n\n";

  out += "| Browser | Native ratio | Native bytes | Ad hosts | "
         "Full-URL leak | PII fields | Non-EU contact |\n";
  out += "|---|---|---|---|---|---|---|\n";
  for (const auto& report : reports) {
    out += "| " + report.browser + " | " +
           Ratio(report.requests.native_ratio) + " | +" +
           Percent(report.volume.native_extra_fraction) + " | " +
           std::to_string(report.domains.ad_related_hosts) + " | " +
           (report.LeaksFullUrl() ? "**YES**" : "no") + " | " +
           std::to_string(report.pii.LeakCount()) + " | " +
           (report.ContactsNonEu() ? "yes" : "no") + " |\n";
  }
  out += "\n";

  for (const auto& report : reports) {
    out += "## " + report.browser + " " + report.version + "\n\n";
    out += "- crawled " + std::to_string(report.sites_visited) +
           " sites: " + std::to_string(report.requests.engine_requests) +
           " engine / " + std::to_string(report.requests.native_requests) +
           " native requests (ratio " +
           Ratio(report.requests.native_ratio) + ")\n";
    out += "- distinct native hosts: " +
           std::to_string(report.domains.distinct_hosts) + " (" +
           Percent(report.domains.ad_related_fraction) +
           " ad/analytics-related)\n";

    for (const auto* findings :
         {&report.native_leaks, &report.engine_leaks}) {
      for (const auto& leak : *findings) {
        out += "- history leak → `" + leak.destination_host + "` (" +
               std::string(LeakGranularityName(leak.granularity)) + ", " +
               leak.encoding +
               (leak.persistent_identifier ? ", persistent identifier"
                                           : "") +
               (leak.via_engine_injection ? ", via JS injection" : "") +
               ", " + std::to_string(leak.report_count) + " reports)\n";
      }
    }

    if (report.pii.LeakCount() > 0) {
      out += "- PII leaked natively:";
      for (size_t i = 0; i < kPiiFieldCount; ++i) {
        if (report.pii.leaked[i]) {
          out += " ";
          out += PiiFieldName(static_cast<PiiField>(i));
          out += ";";
        }
      }
      out += "\n";
    }

    if (!report.countries.empty()) {
      out += "- native traffic lands in:";
      for (const auto& share : report.countries) {
        out += " " + share.country_code + "(" +
               std::to_string(share.flows) + ")";
      }
      out += "\n";
    }
    if (report.referer.leaking_requests > 0) {
      out += "- for contrast, the classic engine-side channel: " +
             std::to_string(report.referer.leaking_requests) +
             " cross-site embed fetches carried the visited page in "
             "their Referer\n";
    }
    if (!report.smuggling.findings.empty()) {
      out += "- " + std::to_string(report.smuggling.findings.size()) +
             " identifier value(s) smuggled across registrable domains "
             "(widest reached " +
             std::to_string(report.smuggling.findings.front().domains) +
             " domains)\n";
    }
    if (report.stack.pin_failures > 0) {
      out += "- " + std::to_string(report.stack.pin_failures) +
             " pinned handshakes were lost to the MITM (results are a "
             "lower bound)\n";
    }
    out += "\n";
  }
  return out;
}

}  // namespace panoptes::analysis
