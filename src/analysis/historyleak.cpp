#include "analysis/historyleak.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/flow_index.h"
#include "util/base64.h"
#include "util/strings.h"
#include "util/uuid.h"

namespace panoptes::analysis {

namespace {

bool IsHexToken(std::string_view value) {
  if (value.size() < 16) return false;
  for (char c : value) {
    bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
               (c >= 'A' && c <= 'F');
    if (!hex) return false;
  }
  return true;
}

// Per-destination tallies.
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

bool LooksLikeIdentifier(std::string_view value) {
  return util::LooksLikeUuid(value) || IsHexToken(value);
}

std::string_view LeakGranularityName(LeakGranularity granularity) {
  switch (granularity) {
    case LeakGranularity::kFullUrl: return "full-url";
    case LeakGranularity::kHostOnly: return "host-only";
  }
  return "?";
}

HistoryLeakDetector::HistoryLeakDetector(std::vector<net::Url> visited) {
  visited_.reserve(visited.size());
  for (const auto& url : visited) {
    VisitedEntry entry;
    entry.full = url.Serialize();
    entry.base64 = util::Base64Encode(entry.full);
    entry.host = url.host();
    visited_hosts_.insert(entry.host);
    host_min_index_.emplace(entry.host,
                            static_cast<uint32_t>(visited_.size()));
    visited_.push_back(std::move(entry));
  }
  std::vector<std::string> patterns;
  patterns.reserve(visited_.size() * 2);
  for (const auto& entry : visited_) {
    patterns.push_back(entry.full);
    patterns.push_back(entry.base64);
  }
  needle_scan_ = std::make_unique<util::MultiScan>(std::move(patterns));
}

HistoryLeakDetector::Hit HistoryLeakDetector::BestHit(
    const std::vector<std::string_view>& candidates, bool& matched) const {
  // The legacy loop ran visited-major over (visited, candidate) pairs,
  // preferred plain over Base64 within a pair, stopped at the first
  // full-URL hit, and fell back to the first hit of any kind. One
  // automaton pass per candidate finds the same winners: pattern ids
  // are already ordered (visited, kind), so the per-candidate minimum
  // dominates that candidate's hits, and packing (visited, candidate,
  // kind) into one integer makes the global reduction a min().
  constexpr uint64_t kNone = UINT64_MAX;
  uint64_t best_full = kNone;  // (visited << 33) | (candidate << 1) | kind
  uint64_t best_host = kNone;  // (visited << 32) | candidate
  for (size_t j = 0; j < candidates.size(); ++j) {
    const std::string_view text = candidates[j];
    uint32_t min_pat = UINT32_MAX;
    needle_scan_->Scan(text, [&](uint32_t pat, size_t) {
      min_pat = std::min(min_pat, pat);
    });
    if (min_pat != UINT32_MAX) {
      uint64_t key = (static_cast<uint64_t>(min_pat >> 1) << 33) |
                     (static_cast<uint64_t>(j) << 1) |
                     static_cast<uint64_t>(min_pat & 1);
      best_full = std::min(best_full, key);
    } else if (best_full == kNone) {
      // Hostname only: the bare host as a discrete value. Irrelevant
      // once any full-URL hit exists.
      if (auto it = host_min_index_.find(text);
          it != host_min_index_.end()) {
        uint64_t key =
            (static_cast<uint64_t>(it->second) << 32) | j;
        best_host = std::min(best_host, key);
      }
    }
  }

  Hit hit;
  if (best_full != kNone) {
    matched = true;
    hit.full_url = true;
    hit.encoding = (best_full & 1) != 0 ? "base64" : "plain";
    size_t j = static_cast<size_t>((best_full >> 1) & 0xFFFFFFFFu);
    hit.sample = std::string(candidates[j].substr(0, 96));
  } else if (best_host != kNone) {
    matched = true;
    hit.full_url = false;
    hit.encoding = "plain";
    size_t j = static_cast<size_t>(best_host & 0xFFFFFFFFu);
    hit.sample = std::string(candidates[j].substr(0, 96));
  }
  return hit;
}

std::vector<LeakFinding> HistoryLeakDetector::Scan(
    const proxy::FlowStore& flows, const FlowIndex& index,
    bool engine_store) const {
  // Bodies are read back from the store by flow id, so an index over a
  // different store would read the wrong flows (or past the end).
  if (index.flow_count() != flows.size()) {
    throw std::invalid_argument(
        "HistoryLeakDetector::Scan: index does not match its flow store");
  }
  // Accumulate per interned host id (vector slot, not map node); the
  // by-destination map Finalize expects is assembled once at the end.
  std::vector<Accumulator> by_host_id(index.hosts().size());

  // Visited-site membership decided once per distinct host.
  std::vector<bool> is_visited;
  is_visited.reserve(index.hosts().size());
  for (const auto& host : index.hosts()) {
    is_visited.push_back(visited_hosts_.count(host.raw) > 0);
  }

  const auto& params = index.params();
  std::string decoded_body;
  std::vector<std::string_view> candidates;
  for (uint32_t flow_id = 0; flow_id < index.flow_count(); ++flow_id) {
    const FlowIndex::FlowEntry& entry = index.entries()[flow_id];
    if (is_visited[entry.host_id]) continue;

    // Candidate texts, in scan order: decoded query values with
    // Base64-decoded twins interleaved (the pool keeps that order), then
    // the raw body, then its percent-decoded form (form posts may carry
    // the URL percent-encoded).
    const std::string_view body = flows.flow(flow_id).request_body;
    candidates.clear();
    for (uint32_t p = entry.param_begin; p < entry.param_end; ++p) {
      if (params[p].source == FlowIndex::ParamSource::kQuery ||
          params[p].source == FlowIndex::ParamSource::kQueryBase64) {
        candidates.push_back(params[p].value);
      }
    }
    if (entry.has_body) {
      candidates.push_back(body);
      if (entry.body_has_percent) {
        decoded_body = util::PercentDecode(body);
        candidates.push_back(decoded_body);
      }
    }

    bool flow_matched = false;
    Hit best_hit = BestHit(candidates, flow_matched);
    if (!flow_matched) continue;

    auto& acc = by_host_id[entry.host_id];
    if (best_hit.full_url) {
      ++acc.full_reports;
    } else {
      ++acc.host_reports;
    }
    if (acc.sample.empty() || best_hit.full_url) {
      acc.encoding = best_hit.encoding;
      acc.sample = best_hit.sample;
      acc.flow_uid = entry.uid;
    }

    // Does a stable identifier accompany the report? Query values
    // first, then JSON body strings.
    for (uint32_t p = entry.param_begin; p < entry.param_end; ++p) {
      if (params[p].source == FlowIndex::ParamSource::kQuery &&
          LooksLikeIdentifier(params[p].value)) {
        acc.persistent_identifier = true;
        acc.identifier_sample = params[p].value;
      }
    }
    for (uint32_t p = entry.param_begin; p < entry.param_end; ++p) {
      if (params[p].source == FlowIndex::ParamSource::kBodyJsonString &&
          LooksLikeIdentifier(params[p].value)) {
        acc.persistent_identifier = true;
        acc.identifier_sample = params[p].value;
      }
    }
  }

  std::map<std::string, Accumulator> by_destination;
  for (size_t id = 0; id < by_host_id.size(); ++id) {
    Accumulator& acc = by_host_id[id];
    if (acc.full_reports + acc.host_reports > 0) {
      by_destination.emplace(index.host(static_cast<uint32_t>(id)).raw,
                             std::move(acc));
    }
  }
  return Finalize(by_destination, engine_store);
}

}  // namespace panoptes::analysis
