// The static half of the simulated internet: every hostname with its
// address, its genuine leaf certificate and whether it speaks HTTP/3.
//
// A HostTable holds no server and no per-exchange state, so one table
// can back any number of networks at once. A testbed plans its table
// once (core::Testbed) and hands it out read-only; each job's
// net::Network only binds its own servers to the table's slots.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/ip.h"
#include "net/tls.h"
#include "util/strings.h"

namespace panoptes::net {

// One hostname's address, leaf and HTTP/3 support.
struct HostRecord {
  std::string hostname;  // folded
  IpAddress ip;
  Certificate leaf;      // issued by the table's web CA
  bool supports_h3 = false;
  // Position in its table, offset by the table's first slot; a network
  // binds the server answering for this host at this index.
  uint32_t slot = 0;
};

class HostTable {
 public:
  // `seed` feeds the web CA's key-id generator; slots count up from
  // `first_slot`.
  explicit HostTable(uint64_t seed, uint32_t first_slot = 0);

  // Registers `hostname` at `ip` and issues its leaf. A name already
  // present keeps its slot, gets a fresh leaf, and gives up its old
  // address. The returned reference is valid until the next Add.
  const HostRecord& Add(std::string_view hostname, IpAddress ip,
                        bool supports_h3);

  // Lookups fold only input that carries an uppercase letter.
  const HostRecord* Find(std::string_view hostname) const;
  const HostRecord* FindByIp(IpAddress ip) const;
  std::optional<IpAddress> Address(std::string_view hostname) const {
    const HostRecord* record = Find(hostname);
    if (record == nullptr) return std::nullopt;
    return record->ip;
  }

  const CertificateAuthority& web_ca() const { return web_ca_; }
  // One past the last slot.
  uint32_t end_slot() const {
    return first_slot_ + static_cast<uint32_t>(records_.size());
  }
  size_t size() const { return records_.size(); }
  const std::vector<HostRecord>& records() const { return records_; }

 private:
  CertificateAuthority web_ca_;
  uint32_t first_slot_;
  std::vector<HostRecord> records_;  // by slot - first_slot_
  std::unordered_map<std::string, uint32_t, util::StringHash,
                     std::equal_to<>>
      by_host_;  // folded name -> index into records_
  std::unordered_map<uint32_t, uint32_t> by_ip_;  // address -> index
};

}  // namespace panoptes::net
