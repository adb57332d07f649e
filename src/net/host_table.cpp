#include "net/host_table.h"

#include "util/rng.h"

namespace panoptes::net {

namespace {

// The name every genuine server leaf is issued under. Devices trust it
// by name (it models the public web PKI), so every table's CA shares it.
constexpr std::string_view kWebCaName = "SimWeb-Root-CA";

}  // namespace

HostTable::HostTable(uint64_t seed)
    : web_ca_(std::string(kWebCaName), util::Rng(seed)) {}

const HostRecord& HostTable::Add(std::string_view hostname, IpAddress ip,
                                 bool supports_h3) {
  std::string key = util::ToLower(hostname);
  auto [it, inserted] =
      by_host_.try_emplace(key, static_cast<uint32_t>(records_.size()));
  uint32_t index = it->second;
  if (inserted) {
    records_.emplace_back();
    records_.back().slot = index;
  } else {
    // A rebind releases the old address, unless another host has
    // claimed it since.
    auto old = by_ip_.find(records_[index].ip.value());
    if (old != by_ip_.end() && old->second == index) by_ip_.erase(old);
  }
  HostRecord& record = records_[index];
  record.leaf = web_ca_.IssueLeaf(key);
  record.hostname = std::move(key);
  record.ip = ip;
  record.supports_h3 = supports_h3;
  by_ip_[ip.value()] = index;
  return record;
}

const HostRecord* HostTable::Find(std::string_view hostname) const {
  std::string folded;
  auto it = by_host_.find(util::LowerIfNeeded(hostname, folded));
  return it == by_host_.end() ? nullptr : &records_[it->second];
}

const HostRecord* HostTable::FindByIp(IpAddress ip) const {
  auto it = by_ip_.find(ip.value());
  return it == by_ip_.end() ? nullptr : &records_[it->second];
}

}  // namespace panoptes::net
