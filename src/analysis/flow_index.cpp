#include "analysis/flow_index.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/psl.h"
#include "net/url.h"
#include "obs/tracer.h"
#include "util/base64.h"
#include "util/json.h"
#include "util/strings.h"

namespace panoptes::analysis {

uint32_t FlowIndex::InternHost(std::string_view raw) {
  if (auto it = host_ids_.find(raw); it != host_ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(hosts_.size());
  hosts_.push_back(HostInfo{std::string(raw), net::CanonicalHost(raw),
                            net::RegistrableDomain(raw)});
  flows_by_host_.emplace_back();
  host_ids_.emplace(std::string(raw), id);
  return id;
}

uint32_t FlowIndex::InternKey(std::string_view key) {
  // A capture sees a handful of distinct keys; a linear scan over the
  // id-ordered vector beats hashing until the table outgrows it.
  if (keys_.size() <= 16) {
    for (uint32_t id = 0; id < keys_.size(); ++id) {
      if (keys_[id] == key) return id;
    }
  } else if (auto it = key_ids_.find(key); it != key_ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(keys_.size());
  keys_.push_back(std::string(key));
  keys_lower_.push_back(util::ToLower(key));
  key_ids_.emplace(std::string(key), id);
  return id;
}

namespace {
// A path's 32-bit tag: the high half of its hash. The tag alone places
// a path in the table and screens candidates before the string
// compare, so re-slotting never hashes a path again.
inline uint32_t PathTag(std::string_view path) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(path) >> 32);
}

// Smallest power-of-two slot count (at least 64) that holds `paths`
// paths under a load factor of 1/2.
size_t PathSlotsFor(size_t paths) {
  size_t cap = 64;
  while (cap < paths * 2) cap *= 2;
  return cap;
}
}  // namespace

uint32_t FlowIndex::FindPath(std::string_view path, uint32_t tag) const {
  if (path_slots_.empty()) return UINT32_MAX;
  const size_t mask = path_slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const uint64_t slot = path_slots_[i];
    if (slot == 0) return UINT32_MAX;
    if (static_cast<uint32_t>(slot >> 32) == tag) {
      uint32_t id = static_cast<uint32_t>(slot) - 1;
      if (paths_[id] == path) return id;
    }
  }
}

void FlowIndex::PlacePath(uint64_t slot) {
  const size_t mask = path_slots_.size() - 1;
  size_t i = (slot >> 32) & mask;
  while (path_slots_[i] != 0) i = (i + 1) & mask;
  path_slots_[i] = slot;
}

void FlowIndex::RehashPaths(size_t slots) {
  std::vector<uint64_t> old = std::move(path_slots_);
  path_slots_.assign(slots, 0);
  for (uint64_t slot : old) {
    // Slots of paths a rewind discarded (id >= paths_.size()) drop out.
    if (slot != 0 && static_cast<uint32_t>(slot) <= paths_.size()) {
      PlacePath(slot);
    }
  }
}

uint32_t FlowIndex::InternPath(std::string_view path, uint32_t tag,
                               bool pooled) {
  if (uint32_t id = FindPath(path, tag); id != UINT32_MAX) return id;
  // Keep the load factor under 1/2 (counting the entry being added).
  if ((paths_.size() + 1) * 2 > path_slots_.size()) {
    RehashPaths(PathSlotsFor(paths_.size() + 1));
  }
  const uint32_t id = static_cast<uint32_t>(paths_.size());
  paths_.push_back(pooled ? path : text_pool_.Copy(path));
  PlacePath((static_cast<uint64_t>(tag) << 32) | (id + 1));
  return id;
}

void FlowIndex::IndexFlow(const proxy::FlowView& flow, uint32_t host_id,
                          PostingsCache& cache) {
  FlowEntry entry;
  entry.uid = flow.uid;
  entry.host_id = host_id;
  entry.path_id = InternPath(flow.url.path(), PathTag(flow.url.path()));
  entry.param_begin = static_cast<uint32_t>(params_.size());
  entry.time_millis = flow.time.millis;
  entry.app_uid = flow.app_uid;
  entry.server_ip = flow.server_ip.value();
  entry.request_bytes = flow.request_bytes;
  entry.response_bytes = flow.response_bytes;
  entry.has_body = !flow.request_body.empty();
  entry.body_has_percent =
      flow.request_body.find('%') != std::string::npos;

  // Pool order replicates the legacy per-flow scans exactly: decoded
  // query pairs in appearance order, each immediately followed by its
  // Base64-decoded twin when one exists (the PII scanner and the
  // history-leak detector both decode under the same condition), then
  // the scalar JSON body members in key order (util::Json objects are
  // sorted maps). Iterating the raw pieces avoids materializing the
  // pair vector QueryParams() builds per flow: percent-decoding only
  // allocates when a piece actually contains '%' (PercentDecode is the
  // identity otherwise), and decoded text lands in the text pool.
  std::string key_scratch;
  std::string value_scratch;
  net::ForEachQueryParamRaw(
      flow.url.query(), [&](std::string_view raw_key, std::string_view raw_value) {
        std::string_view key = raw_key;
        if (raw_key.find('%') != std::string_view::npos) {
          key_scratch = util::PercentDecode(raw_key);
          key = key_scratch;
        }
        std::string_view value = raw_value;
        if (raw_value.find('%') != std::string_view::npos) {
          value_scratch = util::PercentDecode(raw_value);
          value = value_scratch;
        }
        uint32_t key_id = InternKey(key);
        // A Base64 twin needs a valid decode of a value ≥ 8 chars; the
        // length gate runs first so short values skip the decode.
        std::optional<std::string> decoded;
        if (value.size() >= 8) decoded = util::Base64Decode(value);
        params_.push_back(
            Param{key_id, ParamSource::kQuery, text_pool_.Copy(value), 0});
        if (decoded) {
          params_.push_back(Param{key_id, ParamSource::kQueryBase64,
                                  text_pool_.Copy(*decoded), 0});
        }
      });
  if (entry.has_body) {
    if (auto json = util::Json::Parse(flow.request_body);
        json && json->is_object()) {
      for (const auto& [key, value] : json->as_object()) {
        if (value.is_string()) {
          params_.push_back(Param{InternKey(key),
                                  ParamSource::kBodyJsonString,
                                  text_pool_.Copy(value.as_string()), 0});
        } else if (value.is_number()) {
          double number = value.as_number();
          // Same rendering the PII scanner applies: exact integers
          // print bare; otherwise four decimals (enough for lat/lon).
          auto integer = util::ExactInteger<int64_t>(number);
          std::string text = integer ? std::to_string(*integer)
                                     : util::FormatDouble(number, 4);
          params_.push_back(Param{InternKey(key),
                                  ParamSource::kBodyJsonNumber,
                                  text_pool_.Copy(text), number});
        } else if (value.is_bool()) {
          params_.push_back(Param{InternKey(key),
                                  ParamSource::kBodyJsonBool,
                                  value.as_bool() ? "true" : "false", 0});
        }
      }
    }
  }
  entry.param_end = static_cast<uint32_t>(params_.size());

  entries_.push_back(entry);
  AddPostings(static_cast<uint32_t>(entries_.size() - 1), cache);
}

void FlowIndex::AddPostings(uint32_t flow_id, PostingsCache& cache) {
  const FlowEntry& entry = entries_[flow_id];
  flows_by_host_[entry.host_id].push_back(flow_id);
  if (cache.uid_flows == nullptr || cache.uid != entry.app_uid) {
    cache.uid = entry.app_uid;
    cache.uid_flows = &flows_by_uid_[entry.app_uid];
  }
  cache.uid_flows->push_back(flow_id);
  int64_t bucket = entry.time_millis / kTimeBucketMillis * kTimeBucketMillis;
  if (cache.bucket_flows == nullptr || cache.bucket != bucket) {
    cache.bucket = bucket;
    cache.bucket_flows = &flows_by_bucket_[bucket];
  }
  cache.bucket_flows->push_back(flow_id);
  request_bytes_total_ += entry.request_bytes;
  response_bytes_total_ += entry.response_bytes;
}

FlowIndex FlowIndex::Build(const proxy::FlowStore& store) {
  obs::ScopedSpan span("index.build", "index");

  FlowIndex index;
  index.entries_.reserve(store.size());
  // Pre-size the path table for the worst case (every path distinct) so
  // the build never rehashes.
  index.RehashPaths(PathSlotsFor(store.size()));
  // The store already interned hosts; remap its pool ids to index ids
  // lazily (first-live-appearance order, matching what per-flow
  // interning produced) so repeated hosts skip the map lookup.
  constexpr uint32_t kUnmapped = UINT32_MAX;
  std::vector<uint32_t> host_map(store.hosts().size(), kUnmapped);
  PostingsCache cache;
  for (const auto& flow : store.flows()) {
    uint32_t& mapped = host_map[flow.host_id];
    if (mapped == kUnmapped) mapped = index.InternHost(flow.Host());
    index.IndexFlow(flow, mapped, cache);
  }

  span.Arg("flows", static_cast<int64_t>(index.entries_.size()));
  span.Arg("hosts", static_cast<int64_t>(index.hosts_.size()));
  return index;
}

void FlowIndex::AddFlow(const proxy::FlowStore& store, size_t i,
                        Cursor& cursor) {
  constexpr uint32_t kUnmapped = UINT32_MAX;
  // The store's host pool only grows, so the map is extended lazily;
  // a rewind shrinks it back through RewindTo.
  if (cursor.host_map.size() < store.hosts().size()) {
    cursor.host_map.resize(store.hosts().size(), kUnmapped);
  }
  const proxy::FlowView& flow = store.flow(i);
  uint32_t& mapped = cursor.host_map[flow.host_id];
  if (mapped == kUnmapped) mapped = InternHost(flow.Host());
  IndexFlow(flow, mapped, cursor.cache);
}

FlowIndex::Checkpoint FlowIndex::MakeCheckpoint() const {
  return Checkpoint{hosts_.size(),   keys_.size(),
                    paths_.size(),  params_.size(),
                    entries_.size(), request_bytes_total_,
                    response_bytes_total_};
}

void FlowIndex::RewindTo(const Checkpoint& checkpoint, Cursor* cursor) {
  constexpr uint32_t kUnmapped = UINT32_MAX;
  // Pop postings newest-first: each discarded entry is by construction
  // the tail of every postings vector it appears in.
  for (size_t id = entries_.size(); id-- > checkpoint.entries;) {
    const FlowEntry& entry = entries_[id];
    flows_by_host_[entry.host_id].pop_back();
    auto uid_it = flows_by_uid_.find(entry.app_uid);
    uid_it->second.pop_back();
    if (uid_it->second.empty()) flows_by_uid_.erase(uid_it);
    int64_t bucket = entry.time_millis / kTimeBucketMillis * kTimeBucketMillis;
    auto bucket_it = flows_by_bucket_.find(bucket);
    bucket_it->second.pop_back();
    if (bucket_it->second.empty()) flows_by_bucket_.erase(bucket_it);
  }
  entries_.resize(checkpoint.entries);
  params_.resize(checkpoint.params);

  for (size_t id = checkpoint.hosts; id < hosts_.size(); ++id) {
    host_ids_.erase(host_ids_.find(hosts_[id].raw));
  }
  hosts_.resize(checkpoint.hosts);
  flows_by_host_.resize(checkpoint.hosts);
  for (size_t id = checkpoint.keys; id < keys_.size(); ++id) {
    key_ids_.erase(key_ids_.find(keys_[id]));
  }
  keys_.resize(checkpoint.keys);
  keys_lower_.resize(checkpoint.keys);
  if (paths_.size() > checkpoint.paths) {
    paths_.resize(checkpoint.paths);
    // Rebuild the probe table at its size: deleting slots would leave
    // tombstones that break the empty-slot probe termination.
    RehashPaths(path_slots_.size());
  }
  request_bytes_total_ = checkpoint.request_bytes;
  response_bytes_total_ = checkpoint.response_bytes;

  if (cursor != nullptr) {
    for (uint32_t& mapped : cursor->host_map) {
      if (mapped != kUnmapped && mapped >= checkpoint.hosts) {
        mapped = kUnmapped;
      }
    }
    cursor->cache = PostingsCache{};
  }
}

void FlowIndex::Reserve(size_t entries, size_t params) {
  entries_.reserve(entries);
  params_.reserve(params);
  // Every flow has one path, so `entries` bounds the distinct paths:
  // sized for that, the appends never rehash the path table.
  if (PathSlotsFor(entries) > path_slots_.size()) {
    RehashPaths(PathSlotsFor(entries));
  }
}

void FlowIndex::Append(FlowIndex&& other) {
  if (&other == this) {
    throw std::invalid_argument(
        "FlowIndex::Append: an index cannot consume itself");
  }
  obs::ScopedSpan span("index.append", "index");
  const size_t entry_count = other.entries_.size();
  // `other`'s paths and parameter values are views into its text pool;
  // adopting the pool's chunks keeps them valid here, so no text byte
  // is copied.
  text_pool_.Adopt(std::move(other.text_pool_));

  // Interned tables are in first-appearance order, so re-interning each
  // table in order reproduces exactly the ids a single Build over the
  // concatenated stores would assign. A new host moves its HostInfo and
  // its lookup node over instead of recomputing the canonical form and
  // the registrable domain.
  std::vector<uint32_t> host_map(other.hosts_.size());
  for (size_t i = 0; i < other.hosts_.size(); ++i) {
    auto node = other.host_ids_.extract(other.hosts_[i].raw);
    node.mapped() = static_cast<uint32_t>(hosts_.size());
    auto [it, inserted, unused] = host_ids_.insert(std::move(node));
    host_map[i] = it->second;
    if (inserted) {
      hosts_.push_back(std::move(other.hosts_[i]));
      flows_by_host_.emplace_back();
    }
  }
  std::vector<uint32_t> key_map(other.keys_.size());
  for (size_t i = 0; i < other.keys_.size(); ++i) {
    key_map[i] = InternKey(other.keys_[i]);
  }
  // `other`'s slots carry each path's tag, so no path is hashed again.
  std::vector<uint32_t> tags(other.paths_.size());
  for (uint64_t slot : other.path_slots_) {
    if (slot != 0) tags[static_cast<uint32_t>(slot) - 1] = slot >> 32;
  }
  std::vector<uint32_t> path_map(other.paths_.size());
  for (size_t i = 0; i < other.paths_.size(); ++i) {
    path_map[i] = InternPath(other.paths_[i], tags[i], /*pooled=*/true);
  }

  const size_t param_offset = params_.size();
  params_.insert(params_.end(), other.params_.begin(), other.params_.end());
  for (size_t i = param_offset; i < params_.size(); ++i) {
    params_[i].key_id = key_map[params_[i].key_id];
  }

  const size_t entry_offset = entries_.size();
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
  for (size_t i = entry_offset; i < entries_.size(); ++i) {
    FlowEntry& entry = entries_[i];
    entry.host_id = host_map[entry.host_id];
    entry.path_id = path_map[entry.path_id];
    entry.param_begin += static_cast<uint32_t>(param_offset);
    entry.param_end += static_cast<uint32_t>(param_offset);
  }

  // Postings move list by list: every flow of `other` comes after every
  // flow here, so its ascending lists, shifted by the entry offset,
  // extend the matching lists here in order — the lists per-flow
  // AddPostings would have built.
  const auto offset = static_cast<uint32_t>(entry_offset);
  const auto AppendShifted = [offset](std::vector<uint32_t>& into,
                                      const std::vector<uint32_t>& ids) {
    const size_t at = into.size();
    into.resize(at + ids.size());
    for (size_t k = 0; k < ids.size(); ++k) into[at + k] = ids[k] + offset;
  };
  for (size_t i = 0; i < other.flows_by_host_.size(); ++i) {
    AppendShifted(flows_by_host_[host_map[i]], other.flows_by_host_[i]);
  }
  for (const auto& [uid, ids] : other.flows_by_uid_) {
    AppendShifted(flows_by_uid_[uid], ids);
  }
  for (const auto& [bucket, ids] : other.flows_by_bucket_) {
    AppendShifted(flows_by_bucket_[bucket], ids);
  }
  request_bytes_total_ += other.request_bytes_total_;
  response_bytes_total_ += other.response_bytes_total_;
  other = FlowIndex();

  span.Arg("flows", static_cast<int64_t>(entry_count));
}

std::optional<uint32_t> FlowIndex::HostId(std::string_view raw_host) const {
  if (auto it = host_ids_.find(raw_host); it != host_ids_.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::optional<uint32_t> FlowIndex::PathId(std::string_view path) const {
  uint32_t id = FindPath(path, PathTag(path));
  if (id != UINT32_MAX) return id;
  return std::nullopt;
}

const std::vector<uint32_t>* FlowIndex::FlowsToHost(
    std::string_view raw_host) const {
  auto id = HostId(raw_host);
  return id ? &flows_by_host_[*id] : nullptr;
}

std::vector<std::string> FlowIndex::SortedHosts() const {
  std::vector<std::string> sorted;
  sorted.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    sorted.push_back(host.raw);
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void FlowIndex::SerializeTo(util::BinWriter& out) const {
  obs::ScopedSpan span("index.serialize", "index");
  // Only the interned tables, the parameter pool and the flow entries
  // are encoded. Postings, lookup maps, canonical/domain host forms,
  // lowercase keys and byte totals follow from those, so two indexes
  // with equal bytes answer every query alike.
  out.U32(static_cast<uint32_t>(hosts_.size()));
  for (const auto& host : hosts_) {
    out.Str(host.raw);
  }
  out.U32(static_cast<uint32_t>(keys_.size()));
  for (const auto& key : keys_) {
    out.Str(key);
  }
  out.U32(static_cast<uint32_t>(paths_.size()));
  for (const auto& path : paths_) {
    out.Str(path);
  }
  out.U64(params_.size());
  for (const auto& param : params_) {
    out.U32(param.key_id);
    out.U8(static_cast<uint8_t>(param.source));
    out.Str(param.value);
    out.F64(param.number);
  }
  out.U64(entries_.size());
  for (const auto& entry : entries_) {
    out.U64(entry.uid);
    out.U32(entry.host_id);
    out.U32(entry.path_id);
    out.U32(entry.param_begin);
    out.U32(entry.param_end);
    out.I64(entry.time_millis);
    out.I64(entry.app_uid);
    out.U32(entry.server_ip);
    out.U64(entry.request_bytes);
    out.U64(entry.response_bytes);
    out.Bool(entry.has_body);
    out.Bool(entry.body_has_percent);
  }
}

}  // namespace panoptes::analysis
