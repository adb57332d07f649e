// Browsing-history leak detection (paper §3.2).
//
// Given the set of URLs a crawl visited and the captured traffic, finds
// destinations that received the visited URL — either the full URL
// (path and query included: the content the user consumed) or just the
// hostname — whether plainly, percent-encoded or Base64-encoded, in
// query parameters or request bodies. Also detects when the reports
// ride together with a persistent identifier (UUID or long hex token),
// which is what lets a vendor track a user across Tor/VPN/IP changes.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "net/url.h"
#include "proxy/flowstore.h"
#include "util/multiscan.h"

namespace panoptes::analysis {

class FlowIndex;

enum class LeakGranularity { kFullUrl, kHostOnly };

std::string_view LeakGranularityName(LeakGranularity granularity);

struct LeakFinding {
  std::string destination_host;    // who received the report
  LeakGranularity granularity = LeakGranularity::kHostOnly;
  uint64_t report_count = 0;       // how many visits were reported
  bool via_engine_injection = false;  // UC-style: rides tainted traffic
  bool persistent_identifier = false; // a stable ID accompanies reports
  std::string identifier_sample;
  std::string encoding;            // "plain", "base64", ...
  std::string sample;              // one example payload fragment
  // Provenance uid (proxy::FlowView::uid) of the flow `sample` was cut
  // from — the citable exhibit `panoptes_cli explain` resolves. 0 when
  // the scan ran without store uids.
  uint64_t flow_uid = 0;
};

class HistoryLeakDetector {
 public:
  // `visited` are the URLs the campaign navigated to.
  explicit HistoryLeakDetector(std::vector<net::Url> visited);

  // Scans a flow store through its index. `engine_store` true marks
  // findings as injection-based (the UC case: leak rides tainted engine
  // traffic to a non-website destination). Candidate texts come from
  // the pre-decoded parameter pool; only raw bodies are read back from
  // the store, so `index` must have been built over (or merged from)
  // `flows` — throws std::invalid_argument when the two disagree in
  // size.
  std::vector<LeakFinding> Scan(const proxy::FlowStore& flows,
                                const FlowIndex& index,
                                bool engine_store = false) const;

 private:
  // The store-scanning reference scan (tests/oracle) reduces candidates
  // with BestHit too.
  friend class StoreScanOracle;

  struct Hit {
    bool full_url = false;
    std::string encoding;
    std::string sample;
  };

  // Precomputed match targets per visited URL (serialisation and its
  // Base64 form), so scanning is linear in the traffic volume.
  struct VisitedEntry {
    std::string full;
    std::string base64;
    std::string host;
  };

  // Reduces a flow's candidate texts (in scan order) to the hit the
  // legacy nested visited×candidate loop would have reported: the first
  // full-URL hit in (visited, candidate, plain-before-base64) order, or
  // failing that the first host-only hit in (visited, candidate) order.
  // `matched` is set when any hit exists.
  Hit BestHit(const std::vector<std::string_view>& candidates,
              bool& matched) const;

  std::vector<VisitedEntry> visited_;
  std::set<std::string> visited_hosts_;

  // One automaton over every visited URL's plain and Base64 spelling;
  // pattern id = visited_index * 2 + (0 plain | 1 base64), so smaller
  // ids are earlier in the legacy preference order.
  std::unique_ptr<util::MultiScan> needle_scan_;
  // Host-only hits are exact equality, not substring: candidate text ->
  // smallest visited index with that host.
  std::map<std::string, uint32_t, std::less<>> host_min_index_;
};

// True for values shaped like stable identifiers: UUIDs or hex tokens
// of at least 16 characters.
bool LooksLikeIdentifier(std::string_view value);

}  // namespace panoptes::analysis
