#include "analysis/pii.h"

#include "analysis/flow_index.h"
#include "util/base64.h"
#include "util/json.h"
#include "util/multiscan.h"
#include "util/rng.h"
#include "util/strings.h"

namespace panoptes::analysis {

namespace {

void Mark(PiiReport& report, PiiField field, const std::string& host,
          uint64_t value_hash, std::string sample, uint64_t flow_uid) {
  report.leaked[static_cast<size_t>(field)] = true;
  // Dedup on the hash of the FULL value, not the (truncated) sample:
  // two long values sharing an 80-byte prefix are distinct sightings,
  // while the same value re-sent to the same host is not. The first
  // sighting's flow_uid sticks — uid is provenance, never identity, so
  // evidence is unchanged by the flow_uid column.
  for (const auto& existing : report.evidence) {
    if (existing.field == field && existing.host == host &&
        existing.value_hash == value_hash) {
      return;
    }
  }
  report.evidence.push_back(
      PiiEvidence{field, host, std::move(sample), value_hash, flow_uid});
}

// Live proxy::Flow objects have no store ordinal yet, so the shared
// scan implementation reports uid 0 for them; stored FlowViews carry
// their provenance uid.
uint64_t UidOf(const proxy::Flow&) { return 0; }
uint64_t UidOf(const proxy::FlowView& flow) { return flow.uid; }

// Two-decimal needle for coordinate prefix matching, derived by
// TRUNCATING the emitted four-decimal rendering — never by rounding.
// FormatDouble(35.3387, 2) rounds to "35.34", which the emitted value
// "35.3387" does not start with: a rounded needle silently misses any
// coordinate whose trailing decimals round the hundredths digit up, in
// either hemisphere (the sign is part of the string and truncation
// preserves it). Deriving the needle from the same rendering the
// emitters and FlowIndex use keeps the two byte-consistent.
std::string CoordinateNeedle(double value) {
  std::string text = util::FormatDouble(value, 4);
  size_t dot = text.find('.');
  return dot == std::string::npos ? text : text.substr(0, dot + 3);
}

}  // namespace

std::string_view PiiFieldName(PiiField field) {
  switch (field) {
    case PiiField::kDeviceType: return "Device Type";
    case PiiField::kManufacturer: return "Device Manuf.";
    case PiiField::kTimezone: return "Timezone";
    case PiiField::kResolution: return "Resolution";
    case PiiField::kLocalIp: return "Local IP";
    case PiiField::kDpi: return "DPI";
    case PiiField::kRooted: return "Rooted Status";
    case PiiField::kLocale: return "Locale";
    case PiiField::kCountry: return "Country";
    case PiiField::kLocation: return "Location";
    case PiiField::kConnectionType: return "Connection Type";
    case PiiField::kNetworkType: return "Network Type";
  }
  return "?";
}

size_t PiiReport::LeakCount() const {
  size_t count = 0;
  for (bool flag : leaked) {
    if (flag) ++count;
  }
  return count;
}

struct PiiScanner::KeyTraits {
  bool device_or_type = false;
  bool manuf_or_vendor = false;
  bool lat = false;
  bool lon = false;
  bool dpi = false;
  bool root_or_jailb = false;
  bool country_or_cc = false;
  bool net_or_conn = false;
};

PiiScanner::KeyTraits PiiScanner::TraitsOf(std::string_view key_hint) {
  // One case-folded automaton pass replaces thirteen ContainsIgnoreCase
  // sweeps. Bit positions follow the pattern list; a match sets its
  // pattern's bit and the trait reads OR the relevant bits.
  static const util::MultiScan& needles = *new util::MultiScan(
      {"dev", "type", "manuf", "vendor", "lat", "lon", "dpi", "root",
       "jailb", "country", "cc", "net", "conn"},
      /*fold_ascii_case=*/true);
  uint32_t hits = 0;
  needles.Scan(key_hint,
               [&](uint32_t pattern, size_t) { hits |= 1u << pattern; });
  KeyTraits traits;
  traits.device_or_type = (hits & 0b0000000000011u) != 0;   // dev|type
  traits.manuf_or_vendor = (hits & 0b0000000001100u) != 0;  // manuf|vendor
  traits.lat = (hits & 0b0000000010000u) != 0;
  traits.lon = (hits & 0b0000000100000u) != 0;
  traits.dpi = (hits & 0b0000001000000u) != 0;
  traits.root_or_jailb = (hits & 0b0000110000000u) != 0;    // root|jailb
  traits.country_or_cc = (hits & 0b0011000000000u) != 0;    // country|cc
  traits.net_or_conn = (hits & 0b1100000000000u) != 0;      // net|conn
  return traits;
}

PiiScanner::PiiScanner(device::DeviceProfile profile)
    : profile_(std::move(profile)),
      resolution_(std::to_string(profile_.screen_width) + "x" +
                  std::to_string(profile_.screen_height)),
      local_ip_(profile_.local_ip.ToString()),
      locale_underscore_(util::ReplaceAll(profile_.locale, "-", "_")),
      lat_prefix_(CoordinateNeedle(profile_.latitude)),
      lon_prefix_(CoordinateNeedle(profile_.longitude)),
      dpi_(std::to_string(profile_.dpi)) {}

void PiiScanner::ScanText(std::string_view key_hint, std::string_view value,
                          const std::string& host, uint64_t flow_uid,
                          PiiReport& report) const {
  ScanValue(TraitsOf(key_hint), key_hint, value, host, flow_uid, report);
}

void PiiScanner::ScanValue(const KeyTraits& traits, std::string_view key_hint,
                           std::string_view value, const std::string& host,
                           uint64_t flow_uid, PiiReport& report) const {
  // Evidence samples keep at most 80 bytes of the value, cut on a UTF-8
  // boundary so a multi-byte character straddling the limit is dropped
  // whole instead of leaving a mangled partial sequence in reports.
  auto sample = [&] {
    return std::string(key_hint) + "=" +
           std::string(util::TruncateUtf8(value, 80));
  };
  const uint64_t value_hash = util::HashString(value);

  // Value-anchored detections (distinctive values: safe without keys).
  if (value == profile_.device_type ||
      util::EqualsIgnoreCase(value, "tablet") ||
      util::EqualsIgnoreCase(value, "phone")) {
    if (traits.device_or_type || value == profile_.device_type) {
      Mark(report, PiiField::kDeviceType, host, value_hash, sample(), flow_uid);
    }
  }
  if (value == profile_.manufacturer ||
      (traits.manuf_or_vendor &&
       util::EqualsIgnoreCase(value, profile_.manufacturer))) {
    Mark(report, PiiField::kManufacturer, host, value_hash, sample(), flow_uid);
  }
  if (value == profile_.timezone) {
    Mark(report, PiiField::kTimezone, host, value_hash, sample(), flow_uid);
  }
  if (value == resolution_) {
    Mark(report, PiiField::kResolution, host, value_hash, sample(), flow_uid);
  }
  if (value == local_ip_) {
    Mark(report, PiiField::kLocalIp, host, value_hash, sample(), flow_uid);
  }
  if (value == profile_.locale || value == locale_underscore_) {
    Mark(report, PiiField::kLocale, host, value_hash, sample(), flow_uid);
  }
  if ((traits.lat && util::StartsWith(value, lat_prefix_)) ||
      (traits.lon && util::StartsWith(value, lon_prefix_))) {
    Mark(report, PiiField::kLocation, host, value_hash, sample(), flow_uid);
  }

  // Key-anchored detections (generic values: require a keyword).
  if (traits.dpi && value == dpi_) {
    Mark(report, PiiField::kDpi, host, value_hash, sample(), flow_uid);
  }
  if (traits.root_or_jailb &&
      (value == "true" || value == "false" || value == "0" ||
       value == "1")) {
    Mark(report, PiiField::kRooted, host, value_hash, sample(), flow_uid);
  }
  if (traits.country_or_cc &&
      util::EqualsIgnoreCase(value, profile_.country)) {
    Mark(report, PiiField::kCountry, host, value_hash, sample(), flow_uid);
  }
  if (util::EqualsIgnoreCase(value, "metered") ||
      util::EqualsIgnoreCase(value, "unmetered")) {
    Mark(report, PiiField::kConnectionType, host, value_hash, sample(), flow_uid);
  }
  if (traits.net_or_conn &&
      (util::EqualsIgnoreCase(value, "wifi") ||
       util::EqualsIgnoreCase(value, "cellular"))) {
    Mark(report, PiiField::kNetworkType, host, value_hash, sample(), flow_uid);
  }
}

template <typename FlowT>
void PiiScanner::ScanFlowImpl(const FlowT& flow, PiiReport& report) const {
  const std::string host(flow.Host());
  const uint64_t flow_uid = UidOf(flow);

  for (const auto& [key, value] : flow.url.QueryParams()) {
    ScanText(key, value, host, flow_uid, report);
    // Values may be Base64-wrapped (the paper decodes them too).
    if (auto decoded = util::Base64Decode(value);
        decoded && value.size() >= 8) {
      ScanText(key, *decoded, host, flow_uid, report);
    }
  }

  if (flow.request_body.empty()) return;
  auto json = util::Json::Parse(flow.request_body);
  if (!json || !json->is_object()) return;
  for (const auto& [key, value] : json->as_object()) {
    if (value.is_string()) {
      ScanText(key, value.as_string(), host, flow_uid, report);
    } else if (value.is_number()) {
      double number = value.as_number();
      // Exact integers print bare; keep enough precision for lat/lon.
      std::string text = number == static_cast<int64_t>(number)
                             ? std::to_string(static_cast<int64_t>(number))
                             : util::FormatDouble(number, 4);
      ScanText(key, text, host, flow_uid, report);
    } else if (value.is_bool()) {
      ScanText(key, value.as_bool() ? "true" : "false", host,
               flow_uid, report);
    }
  }

  // Resolution split across two JSON numbers (Opera's oleads body).
  const auto* width = json->Find("deviceScreenWidth");
  const auto* height = json->Find("deviceScreenHeight");
  if (width != nullptr && height != nullptr && width->is_number() &&
      height->is_number() &&
      static_cast<int>(width->as_number()) == profile_.screen_width &&
      static_cast<int>(height->as_number()) == profile_.screen_height) {
    std::string joined = std::to_string(profile_.screen_width) + "x" +
                         std::to_string(profile_.screen_height);
    Mark(report, PiiField::kResolution, host, util::HashString(joined),
         "deviceScreenWidth/Height=" + joined, flow_uid);
  }
}

void PiiScanner::ScanFlow(const proxy::Flow& flow, PiiReport& report) const {
  ScanFlowImpl(flow, report);
}

void PiiScanner::ScanFlow(const proxy::FlowView& flow,
                          PiiReport& report) const {
  ScanFlowImpl(flow, report);
}

PiiReport PiiScanner::Scan(const FlowIndex& index) const {
  PiiReport report;
  const auto& params = index.params();
  // Keys are interned, so the keyword probes run once per distinct key
  // instead of once per parameter occurrence.
  std::vector<char> traits_ready(index.key_count(), 0);
  std::vector<KeyTraits> traits(index.key_count());
  for (const auto& entry : index.entries()) {
    const std::string& host = index.host(entry.host_id).raw;
    // The parameter pool replays the legacy per-flow scan order: query
    // pairs with their Base64-decoded twins interleaved, then scalar
    // JSON body members — so evidence comes out in the same order.
    for (uint32_t p = entry.param_begin; p < entry.param_end; ++p) {
      const uint32_t key_id = params[p].key_id;
      if (!traits_ready[key_id]) {
        traits[key_id] = TraitsOf(index.key(key_id));
        traits_ready[key_id] = 1;
      }
      ScanValue(traits[key_id], index.key(key_id), params[p].value, host,
                entry.uid, report);
    }

    // Resolution split across two JSON numbers (Opera's oleads body).
    const FlowIndex::Param* width = nullptr;
    const FlowIndex::Param* height = nullptr;
    for (uint32_t p = entry.param_begin; p < entry.param_end; ++p) {
      if (params[p].source != FlowIndex::ParamSource::kBodyJsonNumber) {
        continue;
      }
      const std::string& key = index.key(params[p].key_id);
      if (key == "deviceScreenWidth") width = &params[p];
      if (key == "deviceScreenHeight") height = &params[p];
    }
    if (width != nullptr && height != nullptr &&
        static_cast<int>(width->number) == profile_.screen_width &&
        static_cast<int>(height->number) == profile_.screen_height) {
      std::string joined = std::to_string(profile_.screen_width) + "x" +
                           std::to_string(profile_.screen_height);
      Mark(report, PiiField::kResolution, host, util::HashString(joined),
           "deviceScreenWidth/Height=" + joined, entry.uid);
    }
  }
  return report;
}

}  // namespace panoptes::analysis
