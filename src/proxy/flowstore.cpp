#include "proxy/flowstore.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <unordered_map>

#include "chaos/injector.h"
#include "net/psl.h"
#include "obs/journal.h"
#include "obs/telemetry.h"
#include "util/rng.h"

namespace panoptes::proxy {

namespace {

// First byte of the portable store SerializeTo writes: v5 records
// carry the provenance uid and redirect-chain provenance.
constexpr uint8_t kV5Tag = 0xF6;
// First byte of a flow-store image (WriteImage). Earlier tags belonged
// to encodings that only the v9 and older snapshots, which re-execute,
// ever held.
constexpr uint8_t kImageTag = 0xF7;

// An image record's fixed-width part, in WriteImage's field order, and
// one header entry (name id, value offset, value length).
constexpr size_t kRecordBytes = 124;
constexpr size_t kHeaderBytes = 12;

// Bits of an image record's URL flags byte.
constexpr uint8_t kHasQuery = 1;
constexpr uint8_t kHasFragment = 2;

// A pool of views keyed on content, ids in first-reference order.
// Interned views (a store's labels and header names) repeat their
// address, so the last few are looked up by address before hashing.
class ViewPool {
 public:
  uint32_t Id(std::string_view view) {
    for (const Seen& seen : recent_) {
      if (seen.data == view.data() && seen.size == view.size()) {
        return seen.id;
      }
    }
    auto [it, inserted] =
        ids_.emplace(view, static_cast<uint32_t>(views_.size()));
    if (inserted) views_.push_back(view);
    recent_[next_++ % recent_.size()] = {view.data(), view.size(), it->second};
    return it->second;
  }
  const std::vector<std::string_view>& views() const { return views_; }

 private:
  struct Seen {
    const char* data = nullptr;
    size_t size = SIZE_MAX;  // matches no view
    uint32_t id = 0;
  };
  std::vector<std::string_view> views_;
  std::unordered_map<std::string_view, uint32_t> ids_;
  std::array<Seen, 16> recent_;
  size_t next_ = 0;
};

// Bound on the chain-tails map. Tokens are minted monotonically per
// browser context and a chain is dead once its navigation finishes, so
// evicting the smallest (oldest) token can only ever drop a finished
// chain — 256 in-flight navigations is far beyond any campaign.
constexpr size_t kMaxChainTails = 256;

}  // namespace

uint32_t MakeProvenanceTag(uint64_t job_seed, uint32_t role) {
  uint64_t state = job_seed ^ (0x9E3779B97F4A7C15ull * (role + 1));
  uint32_t tag = static_cast<uint32_t>(util::SplitMix64(state) >> 32);
  // Tag 0 means "no provenance"; remap the 1-in-2^32 collision.
  return tag == 0 ? 1 : tag;
}

void FlowStore::Add(const Flow& flow) {
  if (chaos_ != nullptr && chaos_->FlowWriteDrop(flow.Host())) {
    ++dropped_writes_;
    return;
  }
  if (telemetry_ != nullptr) ++telemetry_->flows_stored;
  StoreFlow(flow);
  if (journal_ != nullptr) {
    const FlowView& rec = recs_.back();
    auto event = journal_->Emit(flow.time.millis, "store", "flow_stored")
                     .U64Hex("flow", rec.uid)
                     .Num("proxy_id", flow.id)
                     .Str("host", flow.url.host());
    // Chain fields only on redirect hops, so journals of runs without
    // redirect scenarios stay byte-identical to the pre-chain format.
    if (rec.redirect_hop > 0) {
      event.Num("hop", static_cast<uint64_t>(rec.redirect_hop))
          .U64Hex("redirect_of", rec.redirect_of);
    }
  }
}

void FlowStore::TruncateTo(size_t size) {
  if (size >= recs_.size()) return;
  if (telemetry_ != nullptr) {
    telemetry_->flows_rolled_back += recs_.size() - size;
  }
  recs_.resize(size);
}

void FlowStore::StoreFlow(const Flow& flow) {
  FlowView rec;
  rec.id = flow.id;
  rec.uid = (static_cast<uint64_t>(provenance_tag_) << 32) |
            (ordinal_base_ + recs_.size());
  rec.time = flow.time;
  rec.browser = InternLabel(flow.browser);
  rec.app_uid = flow.app_uid;
  rec.method = flow.method;

  // The Url's own text and layout, re-pointed at the arena copy.
  const net::UrlView url = flow.url.view();
  rec.url = url.RebasedTo(arena_.Copy(url.text()));
  rec.host_id = InternHost(rec.url.host());

  if (!compact_) {
    const auto& entries = flow.request_headers.entries();
    if (!entries.empty()) {
      HeaderView* arr = header_arena_.AllocArray<HeaderView>(entries.size());
      for (size_t i = 0; i < entries.size(); ++i) {
        arr[i].name = InternHeaderName(entries[i].first);
        arr[i].value = arena_.Copy(entries[i].second);
      }
      rec.request_headers = HeadersView(arr, entries.size());
    }
    rec.request_body = arena_.Copy(flow.request_body);
  }

  rec.response_status = flow.response_status;
  rec.request_bytes = flow.request_bytes;
  rec.response_bytes = flow.response_bytes;
  rec.server_ip = flow.server_ip;
  rec.version = flow.version;
  rec.origin = flow.origin;
  rec.taint = arena_.Copy(flow.taint);
  rec.blocked = flow.blocked;
  rec.blocked_by = InternLabel(flow.blocked_by);
  rec.fault_injected = flow.fault_injected;

  // Resolve the navigation-chain token into a predecessor uid: the
  // last stored flow of the same chain is this hop's redirect source.
  // Tails key on the token (minted fresh per navigation attempt), so a
  // rolled-back attempt's stale tail is never consulted again, and a
  // chain spanning a spill boundary resolves identically because the
  // streaming buffer hands the tails to the fresh live store.
  rec.redirect_hop = flow.redirect_hop;
  if (flow.chain_id != 0) {
    if (flow.redirect_hop > 0) {
      auto it = chain_tails_.find(flow.chain_id);
      if (it != chain_tails_.end()) rec.redirect_of = it->second;
    }
    chain_tails_[flow.chain_id] = rec.uid;
    if (chain_tails_.size() > kMaxChainTails) {
      chain_tails_.erase(chain_tails_.begin());
    }
  }
  recs_.push_back(rec);
}

void FlowStore::Append(FlowStore&& other) {
  if (&other == this) {
    throw std::invalid_argument(
        "FlowStore::Append: a store cannot consume itself");
  }
  // Merges take flows verbatim — going through StoreFlow here would
  // re-apply *this* store's compaction to flows whose capture-time
  // policy already decided what to keep. The records move as they are:
  // every view in them points into `other`'s chunks, which this arena
  // adopts, so no payload byte is copied. Labels and header names stay
  // views into those chunks rather than this store's pools; every
  // reader (SerializeTo included) keys on their content.
  arena_.Adopt(std::move(other.arena_));
  header_arena_.Adopt(std::move(other.header_arena_));
  const size_t mark = recs_.size();
  recs_.insert(recs_.end(), other.recs_.begin(), other.recs_.end());

  // Remap host ids in first-live-reference order, as per-flow interning
  // would, moving each new host's registrable domain instead of
  // recomputing it.
  constexpr uint32_t kUnmapped = UINT32_MAX;
  std::vector<uint32_t> host_map(other.hosts_.size(), kUnmapped);
  for (size_t i = mark; i < recs_.size(); ++i) {
    uint32_t& mapped = host_map[recs_[i].host_id];
    if (mapped == kUnmapped) {
      HostEntry& host = other.hosts_[recs_[i].host_id];
      auto [it, inserted] = host_ids_.emplace(
          host.host, static_cast<uint32_t>(hosts_.size()));
      if (inserted) {
        hosts_.push_back(HostEntry{host.host, std::move(host.domain)});
      }
      mapped = it->second;
    }
    recs_[i].host_id = mapped;
  }
  other.Clear();
}

void FlowStore::SerializeTo(util::BinWriter& out) const {
  out.U8(kV5Tag);
  out.Bool(compact_);
  out.U64(dropped_writes_);

  // Pools are rebuilt in first-reference order over *live* records, so
  // a truncated store serializes exactly like one that never held the
  // discarded flows.
  ViewPool labels;
  ViewPool names;

  // One pass builds the payload blob (per flow: url text, header
  // values, body, taint — lengths live in the fixed-width records) and
  // the record buffer; pools are emitted first so the reader can
  // resolve ids while scanning records.
  std::string blob;
  util::BinWriter recs;
  for (const FlowView& rec : recs_) {
    recs.U64(rec.id);
    recs.U64(rec.uid);
    recs.I64(rec.time.millis);
    recs.U32(labels.Id(rec.browser));
    recs.I64(rec.app_uid);
    recs.U8(static_cast<uint8_t>(rec.method));
    recs.U32(static_cast<uint32_t>(rec.url.text().size()));
    blob.append(rec.url.text());
    recs.U32(static_cast<uint32_t>(rec.request_headers.size()));
    for (const auto& [name, value] : rec.request_headers.entries()) {
      recs.U32(names.Id(name));
      recs.U32(static_cast<uint32_t>(value.size()));
      blob.append(value);
    }
    recs.U32(static_cast<uint32_t>(rec.request_body.size()));
    blob.append(rec.request_body);
    recs.I64(rec.response_status);
    recs.U64(rec.request_bytes);
    recs.U64(rec.response_bytes);
    recs.U32(rec.server_ip.value());
    recs.U8(static_cast<uint8_t>(rec.version));
    recs.U8(static_cast<uint8_t>(rec.origin));
    recs.U32(static_cast<uint32_t>(rec.taint.size()));
    blob.append(rec.taint);
    recs.Bool(rec.blocked);
    recs.U32(labels.Id(rec.blocked_by));
    recs.Bool(rec.fault_injected);
    recs.U64(rec.redirect_of);
    recs.U32(rec.redirect_hop);
  }

  for (const ViewPool* pool : {&labels, &names}) {
    out.U32(static_cast<uint32_t>(pool->views().size()));
    for (std::string_view view : pool->views()) out.Str(view);
  }
  out.U32(static_cast<uint32_t>(recs_.size()));
  out.U64(blob.size());
  out.Raw(blob);
  out.Raw(recs.data());
}

void FlowStore::WriteImage(util::BinWriter& out) const {
  util::Arena::Block text(arena_);
  if (text.size() > UINT32_MAX || recs_.size() > UINT32_MAX) {
    throw std::length_error("flow-store image: over 4 GiB of text");
  }
  auto Offset = [&](std::string_view view) {
    return static_cast<uint32_t>(text.OffsetOf(view));
  };
  uint64_t header_count = 0;
  for (const FlowView& rec : recs_) header_count += rec.request_headers.size();
  const uint64_t records_size =
      recs_.size() * kRecordBytes + header_count * kHeaderBytes;
  out.Reserve(out.size() + 64 + text.size() + records_size);

  out.U8(kImageTag);
  out.Bool(compact_);
  out.U64(dropped_writes_);
  out.U64(text.size());
  for (std::string_view chunk : text.chunks()) out.Raw(chunk);
  out.U32(static_cast<uint32_t>(recs_.size()));
  out.U64(header_count);
  out.U64(records_size);

  // Pools in first-reference order over live records: labels and
  // header names as views into the text block, hosts by old id.
  ViewPool labels;
  ViewPool names;
  constexpr uint32_t kUnmapped = UINT32_MAX;
  std::vector<uint32_t> host_map(hosts_.size(), kUnmapped);
  std::vector<uint32_t> host_order;
  for (const FlowView& rec : recs_) {
    const auto headers = rec.request_headers.entries();
    util::FieldWriter f{out.Grow(kRecordBytes + headers.size() * kHeaderBytes)};
    f.U64(rec.id);
    f.U64(rec.uid);
    f.U64(static_cast<uint64_t>(rec.time.millis));
    f.U32(labels.Id(rec.browser));
    f.U32(static_cast<uint32_t>(rec.app_uid));
    f.U8(static_cast<uint8_t>(rec.method));
    const net::UrlView::Layout layout = rec.url.layout();
    f.U32(Offset(rec.url.text()));
    f.U32(static_cast<uint32_t>(rec.url.text().size()));
    f.U8(static_cast<uint8_t>(layout.scheme_len));
    f.U8(static_cast<uint8_t>(layout.port_len));
    f.U8((layout.has_query ? kHasQuery : 0) |
         (layout.has_fragment ? kHasFragment : 0));
    f.U32(layout.host_len);
    f.U32(layout.path_len);
    f.U32(layout.query_len);
    uint32_t& host = host_map[rec.host_id];
    if (host == kUnmapped) {
      host = static_cast<uint32_t>(host_order.size());
      host_order.push_back(rec.host_id);
    }
    f.U32(host);
    f.U32(static_cast<uint32_t>(headers.size()));
    f.U32(Offset(rec.request_body));
    f.U32(static_cast<uint32_t>(rec.request_body.size()));
    f.U32(static_cast<uint32_t>(rec.response_status));
    f.U64(rec.request_bytes);
    f.U64(rec.response_bytes);
    f.U32(rec.server_ip.value());
    f.U8(static_cast<uint8_t>(rec.version));
    f.U8(static_cast<uint8_t>(rec.origin));
    f.U32(Offset(rec.taint));
    f.U32(static_cast<uint32_t>(rec.taint.size()));
    f.U8(rec.blocked ? 1 : 0);
    f.U32(labels.Id(rec.blocked_by));
    f.U8(rec.fault_injected ? 1 : 0);
    f.U64(rec.redirect_of);
    f.U32(rec.redirect_hop);
    for (const HeaderView& header : headers) {
      f.U32(names.Id(header.name));
      f.U32(Offset(header.value));
      f.U32(static_cast<uint32_t>(header.value.size()));
    }
  }

  for (const ViewPool* pool : {&labels, &names}) {
    out.U32(static_cast<uint32_t>(pool->views().size()));
    for (std::string_view view : pool->views()) {
      out.U32(Offset(view));
      out.U32(static_cast<uint32_t>(view.size()));
    }
  }
  out.U32(static_cast<uint32_t>(host_order.size()));
  for (uint32_t id : host_order) out.Str(hosts_[id].domain);
}

std::unique_ptr<FlowStore> FlowStore::ReadImage(std::string_view image) {
  util::BinReader in(image);
  const uint8_t tag = in.U8();
  const uint8_t compact = in.U8();
  const uint64_t dropped = in.U64();
  const uint64_t text_size = in.U64();
  if (!in.ok() || tag != kImageTag || compact > 1 ||
      text_size > in.remaining() || text_size > UINT32_MAX) {
    return nullptr;
  }
  const std::string_view text_bytes = in.Raw(static_cast<size_t>(text_size));
  const uint64_t record_count = in.U32();
  const uint64_t header_count = in.U64();
  const uint64_t records_size = in.U64();
  if (!in.ok() || records_size > in.remaining() ||
      header_count > records_size / kHeaderBytes ||
      record_count * kRecordBytes + header_count * kHeaderBytes !=
          records_size) {
    return nullptr;
  }
  const std::string_view records = in.Raw(static_cast<size_t>(records_size));

  auto store = std::make_unique<FlowStore>(compact == 1);
  store->dropped_writes_ = dropped;
  // The text block's one copy: every view below points into it.
  const char* text =
      store->arena_.AdoptBlock(text_bytes.data(), text_bytes.size());
  auto View = [&](uint32_t offset, uint32_t length,
                  std::string_view* view) -> bool {
    if (length == 0) {
      *view = std::string_view();
      return offset == 0;
    }
    if (offset > text_size || length > text_size - offset) return false;
    *view = std::string_view(text + offset, length);
    return true;
  };

  // Pools. Labels and header names are distinct views into the text
  // block; their ids seed the store's intern maps.
  std::vector<std::string_view> labels;
  std::vector<std::string_view> names;
  for (auto [pool, ids] : {std::pair{&labels, &store->label_ids_},
                           std::pair{&names, &store->header_name_ids_}}) {
    const uint32_t count = in.U32();
    if (!in.ok() || count > in.remaining() / 8) return nullptr;
    pool->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string_view view;
      const uint32_t offset = in.U32();
      if (!View(offset, in.U32(), &view) || !ids->emplace(view, i).second) {
        return nullptr;
      }
      pool->push_back(view);
    }
  }
  const uint32_t host_count = in.U32();
  if (!in.ok() || host_count > in.remaining() / 4) return nullptr;
  std::vector<std::string> domains(host_count);
  for (std::string& domain : domains) domain = in.Str();
  if (!in.ok() || !in.AtEnd()) return nullptr;

  // Every pool id must be the next unseen one or an earlier one, so
  // the pools stay in first-reference order.
  uint32_t next_label = 0;
  uint32_t next_name = 0;
  auto Pooled = [](const std::vector<std::string_view>& pool, uint32_t id,
                   uint32_t* next, std::string_view* view) {
    if (id > *next || id >= pool.size()) return false;
    if (id == *next) ++*next;
    *view = pool[id];
    return true;
  };

  HeaderView* headers = nullptr;
  if (header_count > 0) {
    // Sized exactly: a decoded store takes no more than it holds.
    store->header_arena_ =
        util::Arena(static_cast<size_t>(header_count) * sizeof(HeaderView));
    headers = store->header_arena_.AllocArray<HeaderView>(
        static_cast<size_t>(header_count));
  }
  uint64_t next_header = 0;
  std::vector<HostEntry>& hosts = store->hosts_;
  hosts.reserve(host_count);
  store->recs_.resize(static_cast<size_t>(record_count));
  const char* p = records.data();
  const char* const end = p + records.size();
  for (FlowView& rec : store->recs_) {
    if (static_cast<size_t>(end - p) < kRecordBytes) return nullptr;
    util::FieldReader f{p};
    rec.id = f.U64();
    rec.uid = f.U64();
    rec.time.millis = static_cast<int64_t>(f.U64());
    if (!Pooled(labels, f.U32(), &next_label, &rec.browser)) return nullptr;
    rec.app_uid = static_cast<int32_t>(f.U32());
    const uint8_t method = f.U8();
    if (method > static_cast<uint8_t>(net::HttpMethod::kDelete)) return nullptr;
    rec.method = static_cast<net::HttpMethod>(method);
    std::string_view url_text;
    const uint32_t url_offset = f.U32();
    if (!View(url_offset, f.U32(), &url_text)) return nullptr;
    net::UrlView::Layout layout;
    layout.scheme_len = f.U8();
    layout.port_len = f.U8();
    const uint8_t flags = f.U8();
    if (flags > (kHasQuery | kHasFragment)) return nullptr;
    layout.has_query = (flags & kHasQuery) != 0;
    layout.has_fragment = (flags & kHasFragment) != 0;
    layout.host_len = f.U32();
    layout.path_len = f.U32();
    layout.query_len = f.U32();
    auto url = net::UrlView::FromLayout(url_text, layout);
    if (!url.has_value()) return nullptr;
    rec.url = *url;
    // A host's text is its first referencing URL's host.
    const uint32_t host_id = f.U32();
    if (host_id == hosts.size() && host_id < host_count) {
      hosts.push_back(HostEntry{rec.url.host(), std::move(domains[host_id])});
      if (!store->host_ids_.emplace(rec.url.host(), host_id).second) {
        return nullptr;
      }
    } else if (host_id >= hosts.size() ||
               hosts[host_id].host != rec.url.host()) {
      return nullptr;
    }
    rec.host_id = host_id;
    const uint32_t header_len = f.U32();
    const uint32_t body_offset = f.U32();
    if (!View(body_offset, f.U32(), &rec.request_body)) return nullptr;
    rec.response_status = static_cast<int32_t>(f.U32());
    rec.request_bytes = f.U64();
    rec.response_bytes = f.U64();
    rec.server_ip = net::IpAddress(f.U32());
    const uint8_t version = f.U8();
    const uint8_t origin = f.U8();
    if (version > static_cast<uint8_t>(net::HttpVersion::kHttp3) ||
        origin > static_cast<uint8_t>(TrafficOrigin::kNative)) {
      return nullptr;
    }
    rec.version = static_cast<net::HttpVersion>(version);
    rec.origin = static_cast<TrafficOrigin>(origin);
    const uint32_t taint_offset = f.U32();
    if (!View(taint_offset, f.U32(), &rec.taint)) return nullptr;
    const uint8_t blocked = f.U8();
    if (blocked > 1 ||
        !Pooled(labels, f.U32(), &next_label, &rec.blocked_by)) {
      return nullptr;
    }
    rec.blocked = blocked == 1;
    const uint8_t fault = f.U8();
    if (fault > 1) return nullptr;
    rec.fault_injected = fault == 1;
    rec.redirect_of = f.U64();
    rec.redirect_hop = f.U32();
    p += kRecordBytes;

    if (header_len > 0) {
      if (header_len > header_count - next_header ||
          header_len > static_cast<size_t>(end - p) / kHeaderBytes) {
        return nullptr;
      }
      HeaderView* array = headers + next_header;
      for (uint32_t h = 0; h < header_len; ++h) {
        util::FieldReader entry{p};
        if (!Pooled(names, entry.U32(), &next_name, &array[h].name)) {
          return nullptr;
        }
        const uint32_t value_offset = entry.U32();
        if (!View(value_offset, entry.U32(), &array[h].value)) return nullptr;
        p += kHeaderBytes;
      }
      rec.request_headers = HeadersView(array, header_len);
      next_header += header_len;
    }
  }
  if (p != end || next_header != header_count ||
      next_label != labels.size() || next_name != names.size() ||
      hosts.size() != host_count) {
    return nullptr;
  }
  return store;
}
void FlowStore::Clear() {
  recs_.clear();
  recs_.shrink_to_fit();
  hosts_.clear();
  host_ids_.clear();
  label_ids_.clear();
  header_name_ids_.clear();
  arena_.Clear();
  header_arena_.Clear();
}

uint32_t FlowStore::InternHost(std::string_view host) {
  auto it = host_ids_.find(host);
  if (it != host_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(hosts_.size());
  // `host` is a slice of an arena'd URL (or empty), so it is stable for
  // the pool's lifetime and safe as both entry and map key.
  hosts_.push_back(HostEntry{host, net::RegistrableDomain(host)});
  host_ids_.emplace(host, id);
  return id;
}

std::string_view FlowStore::InternLabel(std::string_view label) {
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->first;
  std::string_view stored = arena_.Copy(label);
  label_ids_.emplace(stored, static_cast<uint32_t>(label_ids_.size()));
  return stored;
}

std::string_view FlowStore::InternHeaderName(std::string_view name) {
  auto it = header_name_ids_.find(name);
  if (it != header_name_ids_.end()) return it->first;
  std::string_view stored = arena_.Copy(name);
  header_name_ids_.emplace(stored,
                           static_cast<uint32_t>(header_name_ids_.size()));
  return stored;
}

uint64_t FlowStore::TotalBytes() const {
  uint64_t total = 0;
  for (const FlowView& rec : recs_) {
    total += rec.request_bytes + rec.response_bytes;
  }
  return total;
}

uint64_t FlowStore::RequestBytes() const {
  uint64_t total = 0;
  for (const FlowView& rec : recs_) total += rec.request_bytes;
  return total;
}

std::set<std::string> FlowStore::DistinctHosts() const {
  std::set<std::string> out;
  for (const FlowView& rec : recs_) out.insert(std::string(rec.Host()));
  return out;
}

std::set<std::string> FlowStore::DistinctDomains() const {
  std::set<std::string> out;
  // The pool may hold hosts only referenced by truncated flows, so walk
  // live records — the per-host domain was computed once at intern time.
  for (const FlowView& rec : recs_) out.insert(hosts_[rec.host_id].domain);
  return out;
}

std::vector<FlowView> FlowStore::Where(
    const std::function<bool(const FlowView&)>& predicate) const {
  std::vector<FlowView> out;
  for (const FlowView& rec : recs_) {
    if (predicate(rec)) out.push_back(rec);
  }
  return out;
}

std::vector<FlowView> FlowStore::ToHost(std::string_view host) const {
  return Where([&](const FlowView& rec) { return rec.Host() == host; });
}

std::vector<FlowView> FlowStore::ToDomain(std::string_view domain) const {
  return Where([&](const FlowView& rec) {
    return hosts_[rec.host_id].domain == domain;
  });
}

}  // namespace panoptes::proxy
