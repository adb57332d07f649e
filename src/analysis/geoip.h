// IP-to-geolocation database and the §3.4 international-transfer
// analysis: where do the servers receiving native traffic live, and do
// browsing-history reports leave the EU?
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/geo.h"

namespace panoptes::analysis {

class FlowIndex;

struct GeoInfo {
  std::string country_code;
  std::string country_name;
  bool eu_member = false;
};

class GeoIpDb {
 public:
  GeoIpDb() = default;
  explicit GeoIpDb(std::vector<net::GeoRange> ranges);

  void AddRange(net::GeoRange range);

  std::optional<GeoInfo> Lookup(net::IpAddress ip) const;

  size_t range_count() const { return ranges_.size(); }

 private:
  std::vector<net::GeoRange> ranges_;
};

// One destination country's share of a browser's native traffic.
struct CountryShare {
  std::string country_code;
  std::string country_name;
  bool eu_member = false;
  uint64_t flows = 0;
  std::vector<std::string> hosts;  // distinct destinations there
};

// Groups a native flow store's destinations by country, from its index:
// the (linear-scan) geo lookup runs once per distinct server IP instead
// of once per flow.
std::vector<CountryShare> CountriesContacted(const FlowIndex& index,
                                             const GeoIpDb& db);

// The §3.4 question: for the given destination hosts (the ones found
// leaking history), report the hosting country and whether it is
// outside the EU.
struct TransferFinding {
  std::string host;
  std::string country_code;
  std::string country_name;
  bool outside_eu = false;
};

// Per-host flows come from the index's host postings. Hosts the store
// never contacted are skipped.
std::vector<TransferFinding> ClassifyTransfers(
    const FlowIndex& index, const std::vector<std::string>& hosts,
    const GeoIpDb& db);

}  // namespace panoptes::analysis
