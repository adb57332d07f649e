#include "proxy/har.h"

#include "util/clock.h"
#include "util/json.h"

namespace panoptes::proxy {

namespace {

util::Json EntryFor(const FlowView& flow) {
  util::JsonObject request;
  request["method"] = std::string(net::MethodName(flow.method));
  request["url"] = std::string(flow.url.text());
  util::JsonArray headers;
  for (const auto& [name, value] : flow.request_headers.entries()) {
    util::JsonObject header;
    header["name"] = std::string(name);
    header["value"] = std::string(value);
    headers.push_back(util::Json(std::move(header)));
  }
  request["headers"] = std::move(headers);
  if (!flow.request_body.empty()) {
    util::JsonObject post_data;
    post_data["mimeType"] = "application/json";
    post_data["text"] = std::string(flow.request_body);
    request["postData"] = std::move(post_data);
  }

  util::JsonObject response;
  response["status"] = flow.response_status;
  response["bodySize"] =
      util::Json::ExactNumber(flow.response_bytes, "bodySize");

  util::JsonObject entry;
  entry["startedDateTime"] = util::FormatTimestamp(flow.time);
  entry["request"] = std::move(request);
  entry["response"] = std::move(response);
  entry["_id"] = util::Json::ExactNumber(flow.id, "_id");
  entry["_browser"] = std::string(flow.browser);
  entry["_appUid"] = flow.app_uid;
  entry["_origin"] = std::string(TrafficOriginName(flow.origin));
  entry["_serverIp"] = flow.server_ip.ToString();
  entry["_requestBytes"] =
      util::Json::ExactNumber(flow.request_bytes, "_requestBytes");
  entry["_timeMillis"] =
      util::Json::ExactNumber(flow.time.millis, "_timeMillis");
  if (!flow.taint.empty()) entry["_taint"] = std::string(flow.taint);
  return util::Json(std::move(entry));
}

}  // namespace

std::string ExportHar(const FlowStore& store,
                      std::string_view creator_comment) {
  util::JsonObject creator;
  creator["name"] = "panoptes";
  creator["version"] = "1.0";
  creator["comment"] = std::string(creator_comment);

  util::JsonArray entries;
  for (const auto& flow : store.flows()) {
    entries.push_back(EntryFor(flow));
  }

  util::JsonObject log;
  log["version"] = "1.2";
  log["creator"] = std::move(creator);
  log["entries"] = std::move(entries);

  util::JsonObject root;
  root["log"] = std::move(log);
  return util::Json(std::move(root)).Dump();
}

std::optional<FlowStore> ImportHar(std::string_view har_json) {
  auto root = util::Json::Parse(har_json);
  if (!root || !root->is_object()) return std::nullopt;
  const auto* log = root->Find("log");
  if (log == nullptr) return std::nullopt;
  const auto* entries = log->Find("entries");
  if (entries == nullptr || !entries->is_array()) return std::nullopt;

  FlowStore store;
  for (const auto& entry : entries->as_array()) {
    const auto* request = entry.Find("request");
    const auto* response = entry.Find("response");
    if (request == nullptr || response == nullptr) return std::nullopt;
    const auto* url_field = request->Find("url");
    if (url_field == nullptr || !url_field->is_string()) return std::nullopt;
    auto url = net::Url::Parse(url_field->as_string());
    if (!url) return std::nullopt;

    Flow flow;
    flow.url = std::move(*url);
    if (const auto* method = request->Find("method");
        method != nullptr && method->is_string()) {
      if (auto parsed = net::ParseMethod(method->as_string())) {
        flow.method = *parsed;
      }
    }
    if (const auto* headers = request->Find("headers");
        headers != nullptr && headers->is_array()) {
      for (const auto& header : headers->as_array()) {
        const auto* name = header.Find("name");
        const auto* value = header.Find("value");
        if (name != nullptr && value != nullptr && name->is_string() &&
            value->is_string()) {
          flow.request_headers.Add(name->as_string(), value->as_string());
        }
      }
    }
    if (const auto* post = request->Find("postData"); post != nullptr) {
      if (const auto* text = post->Find("text");
          text != nullptr && text->is_string()) {
        flow.request_body = text->as_string();
      }
    }
    // A field that is missing, or no integer in its field's range, keeps
    // the flow's default.
    auto read = [](const util::Json& object, const char* key, auto& field) {
      if (const auto* value = object.Find(key)) {
        field = value->Integer<std::remove_reference_t<decltype(field)>>()
                    .value_or(field);
      }
    };
    read(*response, "status", flow.response_status);
    read(*response, "bodySize", flow.response_bytes);
    read(entry, "_id", flow.id);
    read(entry, "_appUid", flow.app_uid);
    read(entry, "_requestBytes", flow.request_bytes);
    read(entry, "_timeMillis", flow.time.millis);
    if (const auto* browser = entry.Find("_browser");
        browser != nullptr && browser->is_string()) {
      flow.browser = browser->as_string();
    }
    if (const auto* origin = entry.Find("_origin");
        origin != nullptr && origin->is_string()) {
      if (origin->as_string() == "engine") {
        flow.origin = TrafficOrigin::kEngine;
      } else if (origin->as_string() == "native") {
        flow.origin = TrafficOrigin::kNative;
      }
    }
    if (const auto* taint = entry.Find("_taint");
        taint != nullptr && taint->is_string()) {
      flow.taint = taint->as_string();
    }
    if (const auto* ip = entry.Find("_serverIp");
        ip != nullptr && ip->is_string()) {
      if (auto parsed = net::IpAddress::Parse(ip->as_string())) {
        flow.server_ip = *parsed;
      }
    }
    store.Add(std::move(flow));
  }
  return store;
}

}  // namespace panoptes::proxy
