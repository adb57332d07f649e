// PII / device-identifier extraction (paper §3.3, Table 2).
//
// Scans natively generated requests — URL parameters and bodies,
// including values that only appear after Base64 decoding — for the
// twelve device fields of Table 2, using keyword+value heuristics the
// way the paper combines regex keyword matching with heuristics.
// The Android version and device model are deliberately NOT tracked:
// every vendor reports them via the User-Agent header for
// compatibility, so the paper excludes them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "device/profile.h"
#include "proxy/flowstore.h"

namespace panoptes::analysis {

class FlowIndex;

enum class PiiField {
  kDeviceType,
  kManufacturer,
  kTimezone,
  kResolution,
  kLocalIp,
  kDpi,
  kRooted,
  kLocale,
  kCountry,
  kLocation,
  kConnectionType,
  kNetworkType,
};

inline constexpr size_t kPiiFieldCount = 12;
std::string_view PiiFieldName(PiiField field);

struct PiiEvidence {
  PiiField field = PiiField::kDeviceType;
  std::string host;      // destination that received the value
  std::string sample;    // "key=value" or JSON fragment, UTF-8-safe cut
  uint64_t value_hash = 0;  // hash of the FULL (untruncated) value
  // Provenance uid of the FIRST flow that leaked this (field, host,
  // value) triple — see proxy::FlowView::uid. 0 when the scan ran over
  // a live proxy::Flow (no store ordinal yet). Not part of evidence
  // identity: dedup still keys on (field, host, value_hash) only.
  uint64_t flow_uid = 0;
  // That flow's position in the scanned store (index entry i is store
  // flow i), so a report reads the flow without a uid lookup.
  // kNoStorePosition when the scan ran over a single flow.
  uint32_t store_position = kNoStorePosition;

  static constexpr uint32_t kNoStorePosition = UINT32_MAX;
};

// Table 2 row for one browser.
struct PiiReport {
  std::array<bool, kPiiFieldCount> leaked{};
  std::vector<PiiEvidence> evidence;

  bool Leaks(PiiField field) const {
    return leaked[static_cast<size_t>(field)];
  }
  size_t LeakCount() const;
};

class PiiScanner {
 public:
  explicit PiiScanner(device::DeviceProfile profile);

  // Scans every flow of a native store through its pre-parsed index:
  // the query/body decode work was already done once at index build
  // time.
  PiiReport Scan(const FlowIndex& index) const;

  // Scans one flow, appending evidence to `report`. The Flow and
  // FlowView overloads share one implementation and produce identical
  // evidence.
  void ScanFlow(const proxy::Flow& flow, PiiReport& report) const;
  void ScanFlow(const proxy::FlowView& flow, PiiReport& report) const;

 private:
  // Which keyword hints a key carries. Computed once per distinct key:
  // the index interns keys, so the indexed scan caches traits per
  // key_id instead of re-running the substring probes on every value.
  struct KeyTraits;

  static KeyTraits TraitsOf(std::string_view key_hint);
  template <typename FlowT>
  void ScanFlowImpl(const FlowT& flow, PiiReport& report) const;
  // The scanned flow's provenance uid (0 when unknown) and store
  // position; they ride into PiiEvidence on first sighting.
  struct Source {
    uint64_t uid = 0;
    uint32_t position = PiiEvidence::kNoStorePosition;
  };
  void ScanText(std::string_view key_hint, std::string_view value,
                const std::string& host, const Source& source,
                PiiReport& report) const;
  void ScanValue(const KeyTraits& traits, std::string_view key_hint,
                 std::string_view value, const std::string& host,
                 const Source& source, PiiReport& report) const;

  device::DeviceProfile profile_;
  // Profile-derived needles, rendered once instead of per scanned value.
  std::string resolution_;
  std::string local_ip_;
  std::string locale_underscore_;
  std::string lat_prefix_;
  std::string lon_prefix_;
  std::string dpi_;
};

}  // namespace panoptes::analysis
