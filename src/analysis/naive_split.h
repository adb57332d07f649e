// Baseline splitter (ablation A1).
//
// Tools like a bare mitmproxy, PCAPdroid or Lumen see the same per-app
// traffic Panoptes sees but have no taint: they can only guess the
// engine/native split from the destination. This baseline encodes the
// natural heuristic — "requests to the visited sites and to well-known
// web third parties are engine traffic; everything else is native" —
// and is scored against the taint ground truth. It fails precisely on
// the paper's most interesting traffic: browsers natively calling the
// *same* ad-tech hosts websites embed (Kiwi, Edge→adjust, Opera→
// doubleclick), and UC's injected engine requests to a vendor host.
#pragma once

#include <set>
#include <string>

#include "proxy/flowstore.h"

namespace panoptes::analysis {

class FlowIndex;

class NaiveSplitter {
 public:
  // `site_hosts` are the crawled sites (first-party hosts).
  explicit NaiveSplitter(std::set<std::string> site_hosts);

  // Predicted origin for one flow, ignoring its taint.
  proxy::TrafficOrigin Predict(const proxy::Flow& flow) const;

  // The prediction is a pure function of the destination host; matching
  // is case-insensitive and label-boundary-aware (net::CanonicalHost).
  proxy::TrafficOrigin PredictHost(std::string_view raw_host) const;

  // Same prediction for a host the caller already canonicalized
  // (net::CanonicalHost) — skips the per-call canonicalization.
  proxy::TrafficOrigin PredictCanonical(const std::string& host) const;

  struct Score {
    uint64_t total = 0;
    uint64_t correct = 0;
    uint64_t native_as_engine = 0;  // hidden tracking: the bad miss
    uint64_t engine_as_native = 0;
    double accuracy = 0;
  };

  // Scores predictions against taint ground truth over both stores'
  // indexes: the prediction is per-host, so it runs once per distinct
  // host and is weighted by that host's posting size.
  Score Evaluate(const FlowIndex& engine_index,
                 const FlowIndex& native_index) const;

 private:
  void ScoreIndex(const FlowIndex& index, proxy::TrafficOrigin truth,
                  Score& score) const;

  std::set<std::string> site_hosts_;
  std::set<std::string> site_domains_;  // registrable domains of sites
};

}  // namespace panoptes::analysis
