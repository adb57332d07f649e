#include "oracle/store_scans.h"

#include <algorithm>
#include <map>

#include "net/psl.h"
#include "net/url.h"
#include "util/base64.h"
#include "util/json.h"
#include "util/strings.h"

namespace panoptes::analysis {

// The history-leak scan reduces each flow's candidates with the
// detector's private BestHit; this is the one class granted access.
class StoreScanOracle {
 public:
  static std::vector<LeakFinding> ScanHistoryLeaks(
      const HistoryLeakDetector& detector, const proxy::FlowStore& flows,
      bool engine_store);
};

namespace {

struct Accumulator {
  uint64_t full_reports = 0;
  uint64_t host_reports = 0;
  bool persistent_identifier = false;
  std::string identifier_sample;
  std::string encoding;
  std::string sample;
  uint64_t flow_uid = 0;  // uid of the flow `sample` came from
};

std::vector<LeakFinding> Finalize(
    std::map<std::string, Accumulator>& by_destination, bool engine_store) {
  std::vector<LeakFinding> findings;
  for (auto& [destination, acc] : by_destination) {
    LeakFinding finding;
    finding.destination_host = destination;
    finding.granularity = acc.full_reports > 0 ? LeakGranularity::kFullUrl
                                               : LeakGranularity::kHostOnly;
    finding.report_count = acc.full_reports + acc.host_reports;
    finding.via_engine_injection = engine_store;
    finding.persistent_identifier = acc.persistent_identifier;
    finding.identifier_sample = acc.identifier_sample;
    finding.encoding = acc.encoding;
    finding.sample = acc.sample;
    finding.flow_uid = acc.flow_uid;
    findings.push_back(std::move(finding));
  }
  std::sort(findings.begin(), findings.end(),
            [](const LeakFinding& a, const LeakFinding& b) {
              return a.report_count > b.report_count;
            });
  return findings;
}

}  // namespace

std::vector<LeakFinding> StoreScanOracle::ScanHistoryLeaks(
    const HistoryLeakDetector& detector, const proxy::FlowStore& flows,
    bool engine_store) {
  std::map<std::string, Accumulator> by_destination;

  for (const auto& flow : flows.flows()) {
    const std::string destination(flow.Host());
    // Flows to a visited site itself are the visit, not a leak; the
    // interesting case is a *different* destination learning the URL.
    if (detector.visited_hosts_.count(destination) > 0) continue;

    // Candidate texts: decoded query parameter values (each followed by
    // its Base64-decoded twin when one exists), then the raw body, then
    // its percent-decoded form (form posts may carry the URL
    // percent-encoded). `owned` keeps the query strings alive for the
    // duration of the automaton pass.
    std::vector<std::string> owned;
    for (auto& [key, value] : flow.url.QueryParams()) {
      (void)key;
      auto decoded = util::Base64Decode(value);
      const bool twin = decoded.has_value() && value.size() >= 8;
      owned.push_back(std::move(value));
      if (twin) owned.push_back(std::move(*decoded));
    }
    std::string decoded_body;
    bool has_decoded_body = false;
    if (!flow.request_body.empty() &&
        flow.request_body.find('%') != std::string_view::npos) {
      decoded_body = util::PercentDecode(flow.request_body);
      has_decoded_body = true;
    }
    std::vector<std::string_view> candidates(owned.begin(), owned.end());
    if (!flow.request_body.empty()) {
      candidates.push_back(flow.request_body);
      if (has_decoded_body) candidates.push_back(decoded_body);
    }

    bool flow_matched = false;
    HistoryLeakDetector::Hit best_hit =
        detector.BestHit(candidates, flow_matched);
    if (!flow_matched) continue;

    auto& acc = by_destination[destination];
    if (best_hit.full_url) {
      ++acc.full_reports;
    } else {
      ++acc.host_reports;
    }
    if (acc.sample.empty() || best_hit.full_url) {
      acc.encoding = best_hit.encoding;
      acc.sample = best_hit.sample;
      acc.flow_uid = flow.uid;
    }

    // Does a stable identifier accompany the report?
    for (const auto& [key, value] : flow.url.QueryParams()) {
      (void)key;
      if (LooksLikeIdentifier(value)) {
        acc.persistent_identifier = true;
        acc.identifier_sample = value;
      }
    }
    if (!flow.request_body.empty()) {
      if (auto json = util::Json::Parse(flow.request_body);
          json && json->is_object()) {
        for (const auto& [key, value] : json->as_object()) {
          (void)key;
          if (value.is_string() && LooksLikeIdentifier(value.as_string())) {
            acc.persistent_identifier = true;
            acc.identifier_sample = value.as_string();
          }
        }
      }
    }
  }

  return Finalize(by_destination, engine_store);
}

}  // namespace panoptes::analysis

namespace panoptes::oracle {

using namespace analysis;

namespace {

struct PerHost {
  uint64_t requests = 0;
  std::set<std::string> sites;
};

std::vector<RefererLeak> SortedLeaks(std::map<std::string, PerHost>& by_host) {
  std::vector<RefererLeak> leaks;
  for (auto& [host, entry] : by_host) {
    RefererLeak leak;
    leak.third_party_host = host;
    leak.requests = entry.requests;
    leak.distinct_sites = entry.sites.size();
    leaks.push_back(std::move(leak));
  }
  std::sort(leaks.begin(), leaks.end(),
            [](const RefererLeak& a, const RefererLeak& b) {
              return a.requests > b.requests;
            });
  return leaks;
}

void ScoreStore(const NaiveSplitter& splitter, const proxy::FlowStore& flows,
                proxy::TrafficOrigin truth, NaiveSplitter::Score& score) {
  for (const auto& flow : flows.flows()) {
    ++score.total;
    proxy::TrafficOrigin predicted = splitter.PredictHost(flow.Host());
    if (predicted == truth) {
      ++score.correct;
    } else if (truth == proxy::TrafficOrigin::kNative) {
      ++score.native_as_engine;
    } else {
      ++score.engine_as_native;
    }
  }
}

}  // namespace

PiiReport ScanPii(const PiiScanner& scanner, const proxy::FlowStore& flows) {
  PiiReport report;
  for (const auto& flow : flows.flows()) {
    scanner.ScanFlow(flow, report);
  }
  return report;
}

std::vector<LeakFinding> ScanHistoryLeaks(
    const HistoryLeakDetector& detector, const proxy::FlowStore& flows,
    bool engine_store) {
  return StoreScanOracle::ScanHistoryLeaks(detector, flows, engine_store);
}

RefererReport AnalyzeRefererLeakage(const proxy::FlowStore& engine_flows) {
  RefererReport report;
  std::map<std::string, PerHost> by_host;

  for (const auto& flow : engine_flows.flows()) {
    ++report.engine_requests;
    auto referer = flow.request_headers.Get("Referer");
    if (!referer) continue;
    auto referer_url = net::Url::Parse(*referer);
    if (!referer_url) continue;
    // Third party = different registrable domains (net::SameSite).
    if (net::RegistrableDomain(flow.Host()) ==
        net::RegistrableDomain(referer_url->host())) {
      continue;
    }
    ++report.leaking_requests;
    auto& entry = by_host[std::string(flow.Host())];
    ++entry.requests;
    entry.sites.insert(referer_url->host());
  }

  report.leaks = SortedLeaks(by_host);
  return report;
}

DnsLeakageReport AnalyzeDnsLeakage(
    const proxy::FlowStore& native_flows,
    const std::set<std::string>& visited_hosts) {
  DnsLeakageReport report;
  for (const auto& flow : native_flows.flows()) {
    if (!IsDohProviderHost(flow.Host()) ||
        flow.url.path() != "/dns-query") {
      continue;
    }

    auto name = flow.url.QueryParam("name");
    if (!name) continue;
    report.uses_doh = true;
    report.provider_host = flow.Host();
    ++report.queries;
    std::string lowered = util::ToLower(*name);
    report.domains_leaked.insert(lowered);
    if (visited_hosts.count(lowered) > 0) {
      ++report.visited_site_lookups;
    }
  }
  return report;
}

std::vector<CountryShare> CountriesContacted(const proxy::FlowStore& flows,
                                             const GeoIpDb& db) {
  std::map<std::string, CountryShare> by_code;
  std::map<std::string, std::set<std::string>> hosts_by_code;
  for (const auto& flow : flows.flows()) {
    auto info = db.Lookup(flow.server_ip);
    std::string code = info ? info->country_code : "??";
    auto& share = by_code[code];
    if (share.flows == 0) {
      share.country_code = code;
      share.country_name = info ? info->country_name : "unknown";
      share.eu_member = info && info->eu_member;
    }
    ++share.flows;
    hosts_by_code[code].insert(std::string(flow.Host()));
  }
  std::vector<CountryShare> out;
  for (auto& [code, share] : by_code) {
    for (const auto& host : hosts_by_code[code]) {
      share.hosts.push_back(host);
    }
    out.push_back(std::move(share));
  }
  std::sort(out.begin(), out.end(),
            [](const CountryShare& a, const CountryShare& b) {
              return a.flows > b.flows;
            });
  return out;
}

std::vector<TransferFinding> ClassifyTransfers(
    const proxy::FlowStore& flows, const std::vector<std::string>& hosts,
    const GeoIpDb& db) {
  std::vector<TransferFinding> out;
  for (const auto& host : hosts) {
    auto matching = flows.ToHost(host);
    if (matching.empty()) continue;
    auto info = db.Lookup(matching.front().server_ip);
    TransferFinding finding;
    finding.host = host;
    finding.country_code = info ? info->country_code : "??";
    finding.country_name = info ? info->country_name : "unknown";
    finding.outside_eu = !info || !info->eu_member;
    out.push_back(std::move(finding));
  }
  return out;
}

NaiveSplitter::Score EvaluateSplit(const NaiveSplitter& splitter,
                                   const proxy::FlowStore& engine_flows,
                                   const proxy::FlowStore& native_flows) {
  NaiveSplitter::Score score;
  ScoreStore(splitter, engine_flows, proxy::TrafficOrigin::kEngine, score);
  ScoreStore(splitter, native_flows, proxy::TrafficOrigin::kNative, score);
  if (score.total > 0) {
    score.accuracy =
        static_cast<double>(score.correct) / static_cast<double>(score.total);
  }
  return score;
}

}  // namespace panoptes::oracle
