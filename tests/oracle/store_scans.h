// Store-scanning reference analyzers: the straightforward per-flow
// scans every FlowIndex analyzer replaced. Production code never calls
// these — they exist so the differential tests and the analysis_index
// bench can check the indexed analyzers against an independent,
// obviously-correct rescan of the raw store.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/dns_leakage.h"
#include "analysis/geoip.h"
#include "analysis/historyleak.h"
#include "analysis/naive_split.h"
#include "analysis/pii.h"
#include "analysis/referer.h"
#include "proxy/flowstore.h"

namespace panoptes::oracle {

// Scans every flow in the store (native database).
analysis::PiiReport ScanPii(const analysis::PiiScanner& scanner,
                            const proxy::FlowStore& flows);

// `engine_store` true marks findings as injection-based.
std::vector<analysis::LeakFinding> ScanHistoryLeaks(
    const analysis::HistoryLeakDetector& detector,
    const proxy::FlowStore& flows, bool engine_store = false);

// Requires a non-compact store: headers must have been retained.
analysis::RefererReport AnalyzeRefererLeakage(
    const proxy::FlowStore& engine_flows);

analysis::DnsLeakageReport AnalyzeDnsLeakage(
    const proxy::FlowStore& native_flows,
    const std::set<std::string>& visited_hosts = {});

std::vector<analysis::CountryShare> CountriesContacted(
    const proxy::FlowStore& flows, const analysis::GeoIpDb& db);

std::vector<analysis::TransferFinding> ClassifyTransfers(
    const proxy::FlowStore& flows, const std::vector<std::string>& hosts,
    const analysis::GeoIpDb& db);

// Scores the splitter's per-flow predictions against taint ground truth.
analysis::NaiveSplitter::Score EvaluateSplit(
    const analysis::NaiveSplitter& splitter,
    const proxy::FlowStore& engine_flows,
    const proxy::FlowStore& native_flows);

}  // namespace panoptes::oracle
