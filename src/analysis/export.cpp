#include "analysis/export.h"

#include <initializer_list>
#include <set>

#include "analysis/flow_index.h"
#include "analysis/pii.h"
#include "analysis/uid_smuggling.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "util/clock.h"
#include "util/hex.h"
#include "util/json.h"
#include "util/strings.h"

namespace panoptes::analysis {

namespace {

// Report-generation timing: spans for the trace view plus a histogram
// so slow exports show up in the metrics dump. Timing is telemetry
// only — the rendered report bytes never depend on it.
class ReportTimer {
 public:
  explicit ReportTimer(const char* name)
      : span_(name, "analysis"), start_ns_(util::SteadyNowNanos()) {}
  ~ReportTimer() {
    obs::Families families;
    families.reports.Inc();
    families.report_seconds.Observe(
        static_cast<double>(util::SteadyNowNanos() - start_ns_) * 1e-9);
  }

 private:
  obs::ScopedSpan span_;
  int64_t start_ns_;
};

}  // namespace

std::string CsvField(std::string_view value) {
  bool needs_quoting =
      value.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) return std::string(value);
  std::string out = "\"";
  out += util::ReplaceAll(value, "\"", "\"\"");
  out += "\"";
  return out;
}

std::string RenderCsv(const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  auto append_row = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i != 0) out += ',';
      out += CsvField(cells[i]);
    }
    out += '\n';
  };
  append_row(header);
  for (const auto& row : rows) append_row(row);
  return out;
}

std::string RequestStatsCsv(const std::vector<RequestStats>& stats) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& row : stats) {
    rows.push_back({row.browser, std::to_string(row.engine_requests),
                    std::to_string(row.native_requests),
                    util::FormatDouble(row.native_ratio, 4)});
  }
  return RenderCsv(
      {"browser", "engine_requests", "native_requests", "native_ratio"},
      rows);
}

std::string VolumeStatsCsv(const std::vector<VolumeStats>& stats) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& row : stats) {
    rows.push_back({row.browser, std::to_string(row.engine_bytes),
                    std::to_string(row.native_bytes),
                    util::FormatDouble(row.native_extra_fraction, 4)});
  }
  return RenderCsv(
      {"browser", "engine_bytes", "native_bytes", "native_extra_fraction"},
      rows);
}

std::string DomainStatsCsv(const std::vector<DomainStats>& stats) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& row : stats) {
    rows.push_back({row.browser, std::to_string(row.distinct_hosts),
                    util::FormatDouble(row.third_party_fraction, 4),
                    util::FormatDouble(row.ad_related_fraction, 4),
                    util::Join(row.ad_hosts, ";")});
  }
  return RenderCsv({"browser", "distinct_hosts", "third_party_fraction",
                    "ad_related_fraction", "ad_hosts"},
                   rows);
}

std::string FlowStoreCsv(const proxy::FlowStore& store) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& flow : store.flows()) {
    rows.push_back({util::FormatTimestamp(flow.time),
                    std::string(flow.browser),
                    std::string(proxy::TrafficOriginName(flow.origin)),
                    std::string(net::MethodName(flow.method)),
                    std::string(flow.url.text()),
                    std::to_string(flow.response_status),
                    std::to_string(flow.request_bytes),
                    std::to_string(flow.response_bytes),
                    flow.server_ip.ToString(),
                    flow.blocked ? "blocked" : ""});
  }
  return RenderCsv({"time", "browser", "origin", "method", "url", "status",
                    "request_bytes", "response_bytes", "server_ip", "note"},
                   rows);
}

namespace {

// Names of the PII fields `report` found leaked, in PiiField order.
// Reports scan with the profile of the device the capturing job actually
// simulated, never a hardcoded testbed.
std::vector<std::string> PiiFieldNames(const PiiReport& report) {
  std::vector<std::string> names;
  for (size_t i = 0; i < kPiiFieldCount; ++i) {
    if (report.leaked[i]) {
      names.emplace_back(PiiFieldName(static_cast<PiiField>(i)));
    }
  }
  return names;
}

// True when any result simulates a synthesized cohort — the switch
// that turns on population columns/sections. A run of default-cohort
// jobs must render byte-identically to the pre-population format.
bool HasPopulation(const std::vector<core::FleetJobResult>& results) {
  for (const auto& result : results) {
    if (!result.job.cohort.IsDefault()) return true;
  }
  return false;
}

// The visits a job's flow uids resolve against; none for idle runs.
const std::vector<core::VisitRecord>& VisitsOf(
    const core::FleetJobResult& result) {
  static const std::vector<core::VisitRecord> none;
  return result.crawl.has_value() ? result.crawl->visits : none;
}

// Appends the population columns both fleet CSVs end with (cohort
// label, device model, weight) to a row; with no cohort, their names to
// the header.
void AppendCohortColumns(std::vector<std::string>& cells,
                         const device::DeviceCohort* cohort) {
  if (cohort == nullptr) {
    cells.insert(cells.end(), {"cohort", "device", "cohort_weight"});
    return;
  }
  cells.push_back(cohort->Label());
  cells.push_back(cohort->profile.model);
  cells.push_back(util::FormatDouble(cohort->weight, 6));
}

// The population-weighted view both fleet reports end with: one group
// per (browser, campaign), in plan order. Each member job adds its
// cohort weight w, w times each of its figures, and its values to the
// group's union. Render divides every figure by the group's weight
// mass, so a sharded or partial run still reports what the average
// synthetic user of the population sees.
class PopulationGroups {
 public:
  // `figure_keys` name the weighted figures in the order Add takes
  // them; `union_key` names the sorted union of the members' values.
  PopulationGroups(std::vector<std::string> figure_keys,
                   std::string union_key)
      : figure_keys_(std::move(figure_keys)),
        union_key_(std::move(union_key)) {}

  // Folds one job's figures in and returns its group's value union, for
  // the caller to add the job's values to.
  std::set<std::string>& Add(const core::FleetJobResult& result,
                             std::initializer_list<double> figures) {
    Group& group = GroupOf(result.job);
    const double w = result.job.cohort.weight;
    group.weight += w;
    size_t i = 0;
    for (double figure : figures) group.sums[i++] += w * figure;
    ++group.cohorts;
    return group.values;
  }

  util::JsonArray Render() const {
    util::JsonArray out;
    for (const Group& group : groups_) {
      util::JsonObject json;
      json["browser"] = group.browser;
      json["campaign"] = std::string(core::CampaignKindName(group.kind));
      json["cohorts"] = group.cohorts;
      json["weight"] = group.weight;
      const double norm = group.weight > 0 ? group.weight : 1.0;
      for (size_t i = 0; i < figure_keys_.size(); ++i) {
        json[figure_keys_[i]] = group.sums[i] / norm;
      }
      util::JsonArray values;
      for (const std::string& value : group.values) values.emplace_back(value);
      json[union_key_] = std::move(values);
      out.push_back(util::Json(std::move(json)));
    }
    return out;
  }

 private:
  struct Group {
    std::string browser;
    core::CampaignKind kind;
    double weight;
    std::vector<double> sums;  // w_i * figure_i, in figure_keys_ order
    std::set<std::string> values;
    uint64_t cohorts;
  };

  Group& GroupOf(const core::FleetJob& job) {
    for (Group& group : groups_) {
      if (group.kind == job.kind && group.browser == job.spec.name) {
        return group;
      }
    }
    groups_.push_back(Group{job.spec.name, job.kind, 0,
                            std::vector<double>(figure_keys_.size()), {}, 0});
    return groups_.back();
  }

  std::vector<std::string> figure_keys_;
  std::string union_key_;
  std::vector<Group> groups_;
};

// The per-result findings array: one entry per PII evidence record,
// each carrying the full provenance chain of the observatory's
// contract — flow_id, job (result index), visit, attempt,
// fault_injected. Everything is computed from data the result always
// carries (stores, visits, attempt count), never from the journal, so
// the report stays byte-identical with journaling on or off.
util::JsonArray FindingsJson(const PiiReport& report,
                             const proxy::FlowStore& store,
                             const std::vector<core::VisitRecord>& visits,
                             size_t job_index, int attempts) {
  util::JsonArray findings;
  for (const PiiEvidence& evidence : report.evidence) {
    util::JsonObject finding;
    finding["analyzer"] = std::string("pii");
    finding["field"] = std::string(PiiFieldName(evidence.field));
    finding["host"] = evidence.host;
    finding["sample"] = evidence.sample;
    finding["flow_id"] = util::Hex64(evidence.flow_uid);
    finding["job"] = static_cast<uint64_t>(job_index);
    finding["attempt"] = static_cast<int64_t>(attempts);
    finding["visit"] = core::VisitOfFlow(evidence.flow_uid, visits);
    finding["fault_injected"] =
        evidence.store_position < store.size() &&
        store.flow(evidence.store_position).fault_injected;
    findings.push_back(util::Json(std::move(finding)));
  }
  return findings;
}

}  // namespace

std::string FleetSummaryCsv(
    const std::vector<core::FleetJobResult>& results) {
  ReportTimer timer("analysis.fleet_summary_csv");
  const bool population = HasPopulation(results);
  std::vector<std::vector<std::string>> rows;
  for (const auto& result : results) {
    const core::JobFigures figures = result.Figures();
    size_t pii = 0;
    if (const core::CaptureResult* capture = result.capture()) {
      pii = PiiScanner(result.job.cohort.profile)
                .Scan(*capture->native_index)
                .LeakCount();
    }
    std::vector<std::string> row = {
        result.job.spec.name,
        std::string(core::CampaignKindName(result.job.kind)),
        util::Hex64(result.seed),
        std::to_string(figures.engine_requests),
        std::to_string(figures.native_requests),
        util::FormatDouble(figures.native_ratio, 4),
        std::to_string(figures.engine_request_bytes),
        std::to_string(figures.native_request_bytes),
        std::to_string(pii)};
    if (population) AppendCohortColumns(row, &result.job.cohort);
    rows.push_back(std::move(row));
  }
  std::vector<std::string> header = {
      "browser", "campaign", "seed", "engine_requests", "native_requests",
      "native_ratio", "engine_bytes", "native_bytes", "pii_fields"};
  if (population) AppendCohortColumns(header, nullptr);
  return RenderCsv(header, rows);
}

namespace {

// One job's capture as report fields — the crawl or idle extras, then
// the native figures, PII fields and findings every campaign reports —
// folded into `population` too for population runs.
void CaptureJson(const core::FleetJobResult& result, size_t job_index,
                 util::JsonObject& entry, PopulationGroups* population) {
  const core::CaptureResult& capture = *result.capture();
  const core::JobFigures figures = result.Figures();
  if (result.crawl.has_value()) {
    const core::CrawlResult& crawl = *result.crawl;
    entry["engine_requests"] = figures.engine_requests;
    entry["native_ratio"] = figures.native_ratio;
    entry["engine_request_bytes"] = figures.engine_request_bytes;
    entry["incognito_effective"] = crawl.incognito_effective;
    entry["visits"] = static_cast<uint64_t>(crawl.visits.size());
    uint64_t ok = 0;
    for (const auto& visit : crawl.visits) ok += visit.ok ? 1 : 0;
    entry["visits_ok"] = ok;
    util::JsonArray hosts;
    for (auto& host : crawl.native_index->SortedHosts()) {
      hosts.emplace_back(std::move(host));
    }
    entry["native_hosts"] = std::move(hosts);
  } else {
    util::JsonArray buckets;
    for (uint64_t count : result.idle->cumulative_by_bucket) {
      buckets.emplace_back(count);
    }
    entry["cumulative_by_bucket"] = std::move(buckets);
  }
  entry["native_requests"] = figures.native_requests;
  entry["native_request_bytes"] = figures.native_request_bytes;
  PiiReport pii_report =
      PiiScanner(result.job.cohort.profile).Scan(*capture.native_index);
  std::vector<std::string> pii = PiiFieldNames(pii_report);
  entry["findings"] = FindingsJson(pii_report, *capture.native_flows,
                                   VisitsOf(result), job_index,
                                   result.attempts);
  if (population != nullptr) {
    population
        ->Add(result, {static_cast<double>(figures.native_requests),
                       figures.native_ratio, static_cast<double>(pii.size())})
        .insert(pii.begin(), pii.end());
  }
  util::JsonArray pii_json;
  for (std::string& field : pii) pii_json.emplace_back(std::move(field));
  entry["pii_fields"] = std::move(pii_json);
}

}  // namespace

std::string FleetReportJson(
    const std::vector<core::FleetJobResult>& results) {
  ReportTimer timer("analysis.fleet_report_json");
  const bool population = HasPopulation(results);
  // Population-weighted view: what the *average synthetic user* of this
  // population leaks, per browser and campaign.
  PopulationGroups groups({"weighted_native_requests",
                           "weighted_native_ratio", "weighted_pii_fields"},
                          "pii_field_union");
  util::JsonArray entries;
  for (size_t job_index = 0; job_index < results.size(); ++job_index) {
    const auto& result = results[job_index];
    util::JsonObject entry;
    entry["browser"] = result.job.spec.name;
    entry["campaign"] =
        std::string(core::CampaignKindName(result.job.kind));
    entry["seed"] = util::Hex64(result.seed);
    if (population && !result.job.cohort.IsDefault()) {
      const device::DeviceCohort& cohort = result.job.cohort;
      util::JsonObject cohort_json;
      cohort_json["label"] = cohort.Label();
      cohort_json["id"] = util::Hex64(cohort.id);
      cohort_json["weight"] = cohort.weight;
      cohort_json["manufacturer"] = cohort.profile.manufacturer;
      cohort_json["model"] = cohort.profile.model;
      cohort_json["locale"] = cohort.profile.locale;
      cohort_json["country"] = cohort.profile.country;
      cohort_json["connection"] = cohort.profile.connection_type;
      cohort_json["rooted"] = cohort.profile.rooted;
      entry["cohort"] = util::Json(std::move(cohort_json));
    }
    if (result.capture() != nullptr) {
      CaptureJson(result, job_index, entry, population ? &groups : nullptr);
    }
    entries.push_back(util::Json(std::move(entry)));
  }
  util::JsonObject root;
  root["results"] = std::move(entries);
  if (population) root["population"] = groups.Render();
  return util::Json(std::move(root)).Dump();
}

namespace {

// Idle results carry no engine store; the analyzer treats an empty
// (store, index) pair as an empty side, so the native self-join still
// runs (device-fingerprint values shared across vendor domains).
const proxy::FlowStore& EmptyFlowStore() {
  static const proxy::FlowStore empty;
  return empty;
}
const FlowIndex& EmptyFlowIndex() {
  static const FlowIndex empty;
  return empty;
}

// Runs the smuggling analyzer for one fleet result; nullopt when the
// result holds neither a crawl nor idle traffic (quarantined job).
std::optional<UidSmugglingReport> SmugglingFor(
    const core::FleetJobResult& result) {
  const core::CaptureResult* capture = result.capture();
  if (capture == nullptr) return std::nullopt;
  const core::CrawlResult* crawl =
      result.crawl.has_value() ? &*result.crawl : nullptr;
  return AnalyzeUidSmuggling(
      crawl != nullptr ? *crawl->engine_flows : EmptyFlowStore(),
      crawl != nullptr ? *crawl->engine_index : EmptyFlowIndex(),
      *capture->native_flows, *capture->native_index);
}

util::JsonObject SightingJson(const UidSighting& sighting,
                              const std::vector<core::VisitRecord>& visits) {
  util::JsonObject out;
  out["flow_id"] = util::Hex64(sighting.flow_uid);
  out["host"] = sighting.host;
  out["domain"] = sighting.domain;
  out["key"] = sighting.key;
  out["carrier"] = std::string(UidCarrierName(sighting.carrier));
  out["embedded"] = sighting.embedded;
  out["visit"] = core::VisitOfFlow(sighting.flow_uid, visits);
  if (sighting.redirect_hop > 0) {
    out["hop"] = static_cast<uint64_t>(sighting.redirect_hop);
    out["redirect_of"] = util::Hex64(sighting.redirect_of);
    out["chain_head"] = util::Hex64(sighting.chain_head);
  }
  return out;
}

}  // namespace

std::string UidSmugglingReportJson(
    const std::vector<core::FleetJobResult>& results) {
  ReportTimer timer("analysis.uid_smuggling_json");
  const bool population = HasPopulation(results);
  PopulationGroups groups({"weighted_findings", "weighted_sightings"},
                          "value_union");
  util::JsonArray entries;
  for (const auto& result : results) {
    auto smuggling = SmugglingFor(result);
    if (!smuggling.has_value()) continue;
    util::JsonObject entry;
    entry["browser"] = result.job.spec.name;
    entry["campaign"] = std::string(core::CampaignKindName(result.job.kind));
    entry["seed"] = util::Hex64(result.seed);
    if (population && !result.job.cohort.IsDefault()) {
      const device::DeviceCohort& cohort = result.job.cohort;
      util::JsonObject cohort_json;
      cohort_json["label"] = cohort.Label();
      cohort_json["id"] = util::Hex64(cohort.id);
      cohort_json["weight"] = cohort.weight;
      cohort_json["model"] = cohort.profile.model;
      entry["cohort"] = util::Json(std::move(cohort_json));
    }
    entry["values_examined"] = smuggling->values_examined;
    entry["flows_with_chains"] = smuggling->flows_with_chains;
    const std::vector<core::VisitRecord>& visits = VisitsOf(result);
    util::JsonArray findings;
    for (const UidSmugglingFinding& finding : smuggling->findings) {
      util::JsonObject finding_json;
      finding_json["value"] = finding.value;
      finding_json["domains"] = finding.domains;
      finding_json["engine_sightings"] = finding.engine_sightings;
      finding_json["native_sightings"] = finding.native_sightings;
      finding_json["embedded_sightings"] = finding.embedded_sightings;
      finding_json["chained_sightings"] = finding.chained_sightings;
      finding_json["max_chain_hops"] =
          static_cast<uint64_t>(finding.max_chain_hops);
      finding_json["first_seen"] = finding.first_seen_millis;
      finding_json["last_seen"] = finding.last_seen_millis;
      util::JsonArray sightings;
      for (const UidSighting& sighting : finding.sightings) {
        sightings.push_back(util::Json(SightingJson(sighting, visits)));
      }
      finding_json["sightings"] = std::move(sightings);
      findings.push_back(util::Json(std::move(finding_json)));
    }
    entry["findings"] = std::move(findings);
    entries.push_back(util::Json(std::move(entry)));

    if (population) {
      std::set<std::string>& values = groups.Add(
          result, {static_cast<double>(smuggling->findings.size()),
                   static_cast<double>(smuggling->TotalSightings())});
      for (const UidSmugglingFinding& finding : smuggling->findings) {
        values.insert(finding.value);
      }
    }
  }

  util::JsonObject root;
  root["results"] = std::move(entries);
  if (population) root["population"] = groups.Render();
  return util::Json(std::move(root)).Dump();
}

std::string UidSmugglingCsv(
    const std::vector<core::FleetJobResult>& results) {
  ReportTimer timer("analysis.uid_smuggling_csv");
  const bool population = HasPopulation(results);
  std::vector<std::vector<std::string>> rows;
  for (const auto& result : results) {
    auto smuggling = SmugglingFor(result);
    if (!smuggling.has_value()) continue;
    for (const UidSmugglingFinding& finding : smuggling->findings) {
      std::vector<std::string> row = {
          result.job.spec.name,
          std::string(core::CampaignKindName(result.job.kind)),
          util::Hex64(result.seed),
          finding.value,
          std::to_string(finding.domains),
          std::to_string(finding.engine_sightings),
          std::to_string(finding.native_sightings),
          std::to_string(finding.embedded_sightings),
          std::to_string(finding.chained_sightings),
          std::to_string(finding.max_chain_hops)};
      if (population) AppendCohortColumns(row, &result.job.cohort);
      rows.push_back(std::move(row));
    }
  }
  std::vector<std::string> header = {
      "browser", "campaign", "seed", "value", "domains", "engine_sightings",
      "native_sightings", "embedded_sightings", "chained_sightings",
      "max_chain_hops"};
  if (population) AppendCohortColumns(header, nullptr);
  return RenderCsv(header, rows);
}

std::string RunManifestJson(const core::RunManifest& manifest) {
  ReportTimer timer("analysis.run_manifest_json");
  return manifest.ToJson();
}

std::string WindowReportJson(std::string_view browser, const FlowIndex& index,
                             const device::DeviceProfile& profile) {
  ReportTimer timer("analysis.window_report_json");
  util::JsonObject root;
  root["browser"] = std::string(browser);
  root["native_requests"] = static_cast<uint64_t>(index.flow_count());
  root["native_request_bytes"] = index.request_bytes_total();
  root["native_response_bytes"] = index.response_bytes_total();

  util::JsonArray hosts;
  for (auto& host : index.SortedHosts()) hosts.emplace_back(std::move(host));
  root["native_hosts"] = std::move(hosts);
  std::set<std::string_view> domains;
  for (const auto& host : index.hosts()) domains.insert(host.domain);
  root["distinct_domains"] = static_cast<uint64_t>(domains.size());

  // Cumulative request count per absolute 10-second bucket (the Fig 5
  // shape, answered from the postings instead of a store rescan).
  util::JsonArray buckets;
  uint64_t cumulative = 0;
  for (const auto& [bucket, flows] : index.by_time_bucket()) {
    util::JsonObject entry;
    entry["t"] = bucket;
    cumulative += flows.size();
    entry["cumulative"] = cumulative;
    buckets.push_back(util::Json(std::move(entry)));
  }
  root["by_time_bucket"] = std::move(buckets);

  util::JsonArray pii;
  for (std::string& field : PiiFieldNames(PiiScanner(profile).Scan(index))) {
    pii.emplace_back(std::move(field));
  }
  root["pii_fields"] = std::move(pii);
  return util::Json(std::move(root)).Dump();
}

}  // namespace panoptes::analysis
