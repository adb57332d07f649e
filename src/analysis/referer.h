// Engine-side history leakage through Referer headers.
//
// The paper's contribution is the *native* channel, but the classic
// engine-side channel — third-party embeds learning the visited page
// through the Referer header — is the baseline privacy folklore the
// native findings are contrasted against. This analysis quantifies it
// on the engine flow store, so audits can show both channels side by
// side.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "proxy/flowstore.h"

namespace panoptes::analysis {

class FlowIndex;

struct RefererLeak {
  std::string third_party_host;  // who learned the visit
  uint64_t requests = 0;         // embed fetches carrying a Referer
  uint64_t distinct_sites = 0;   // how many first parties it saw
};

struct RefererReport {
  uint64_t engine_requests = 0;
  // Cross-site requests whose Referer header revealed the visited page
  // to a third-party host.
  uint64_t leaking_requests = 0;
  std::vector<RefererLeak> leaks;  // per third-party host, most first

  double LeakFraction() const {
    return engine_requests == 0
               ? 0
               : static_cast<double>(leaking_requests) / engine_requests;
  }
};

// Scans an engine flow store (requires a non-compact store: headers
// must have been retained) through its index: destination registrable
// domains come from the interned host table and referer-host domains
// are memoized, so the PSL walk runs per distinct host instead of per
// flow. Headers are still read from the store by flow id, so `index`
// must match it — throws std::invalid_argument when the sizes disagree.
RefererReport AnalyzeRefererLeakage(const proxy::FlowStore& engine_flows,
                                    const FlowIndex& index);

}  // namespace panoptes::analysis
