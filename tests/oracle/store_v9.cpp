#include "oracle/store_v9.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/url.h"

namespace panoptes::oracle {

std::unique_ptr<proxy::FlowStore> DecodeSerializedStore(util::BinReader& in) {
  constexpr uint8_t kV5Tag = 0xF6;
  if (in.U8() != kV5Tag || !in.ok()) return nullptr;
  const bool compact = in.Bool();
  auto store = std::make_unique<proxy::FlowStore>(compact);
  store->AccumulateDroppedWrites(in.U64());

  std::vector<std::string> labels;
  std::vector<std::string> names;
  for (std::vector<std::string>* pool : {&labels, &names}) {
    const uint32_t count = in.U32();
    if (!in.ok() || count > in.remaining() / 4) return nullptr;
    for (uint32_t i = 0; i < count; ++i) pool->push_back(in.Str());
  }
  const uint32_t count = in.U32();
  if (!in.ok() || count > in.remaining() / 8) return nullptr;
  const uint64_t blob_len = in.U64();
  if (!in.ok() || blob_len > in.remaining()) return nullptr;
  const std::string_view blob = in.Raw(static_cast<size_t>(blob_len));
  size_t cursor = 0;
  bool overrun = false;
  auto Take = [&](uint32_t len) -> std::string {
    if (len > blob.size() - cursor) {
      overrun = true;
      return {};
    }
    std::string piece(blob.substr(cursor, len));
    cursor += len;
    return piece;
  };
  auto Label = [&](const std::vector<std::string>& pool, uint32_t id,
                   std::string* out) {
    if (id >= pool.size()) return false;
    *out = pool[id];
    return true;
  };

  for (uint32_t i = 0; i < count && in.ok(); ++i) {
    proxy::Flow flow;
    flow.id = in.U64();
    const uint64_t uid = in.U64();
    flow.time.millis = in.I64();
    if (!Label(labels, in.U32(), &flow.browser)) return nullptr;
    flow.app_uid = static_cast<int>(in.I64());
    flow.method = in.Enum(net::HttpMethod::kDelete);
    const std::string url = Take(in.U32());
    auto view = net::UrlView::Parse(url);
    if (!view.has_value()) return nullptr;
    flow.url = view->ToUrl();
    const uint32_t header_count = in.U32();
    if (!in.ok() || header_count > in.remaining() / 8) return nullptr;
    for (uint32_t h = 0; h < header_count; ++h) {
      std::string name;
      if (!Label(names, in.U32(), &name)) return nullptr;
      flow.request_headers.Add(name, Take(in.U32()));
    }
    flow.request_body = Take(in.U32());
    flow.response_status = static_cast<int>(in.I64());
    flow.request_bytes = in.U64();
    flow.response_bytes = in.U64();
    flow.server_ip = net::IpAddress(in.U32());
    flow.version = in.Enum(net::HttpVersion::kHttp3);
    flow.origin = in.Enum(proxy::TrafficOrigin::kNative);
    flow.taint = Take(in.U32());
    flow.blocked = in.Bool();
    if (!Label(labels, in.U32(), &flow.blocked_by)) return nullptr;
    flow.fault_injected = in.Bool();
    const uint64_t redirect_of = in.U64();
    flow.redirect_hop = in.U32();
    if (overrun || !in.ok()) return nullptr;
    if (compact && (header_count > 0 || !flow.request_body.empty())) {
      return nullptr;
    }

    // Add stamps (tag << 32) | (ordinal base + size): choose the base
    // that yields the stored uid.
    store->SetProvenance(static_cast<uint32_t>(uid >> 32));
    store->SetOrdinalBase((uid & 0xFFFFFFFFu) - store->size());
    // A hop's predecessor is its chain's tail; only hops past the first
    // have one.
    if (redirect_of != 0) {
      if (flow.redirect_hop == 0) return nullptr;
      flow.chain_id = 1;
      store->SetChainTails({{flow.chain_id, redirect_of}});
    }
    store->Add(flow);
  }
  if (!in.ok() || cursor != blob.size()) return nullptr;
  store->SetChainTails({});
  return store;
}

}  // namespace panoptes::oracle
