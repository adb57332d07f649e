#include "oracle/url_parse.h"

#include <algorithm>

#include "net/url.h"
#include "util/strings.h"

namespace panoptes::oracle {

std::optional<ComponentUrl> ComponentUrl::Parse(std::string_view text) {
  ComponentUrl url;
  size_t scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos) return std::nullopt;
  url.scheme_ = util::ToLower(text.substr(0, scheme_end));
  if (url.scheme_ != "http" && url.scheme_ != "https") return std::nullopt;
  text.remove_prefix(scheme_end + 3);

  // Authority runs to the first of '/', '?', '#'.
  size_t authority_end = text.find_first_of("/?#");
  std::string_view authority = text.substr(0, authority_end);
  if (authority.empty()) return std::nullopt;

  size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    std::string_view digits = authority.substr(colon + 1);
    auto port = util::ParseUint(digits);
    if (!port || *port == 0 || *port > 65535) return std::nullopt;
    if (digits.front() == '0') return std::nullopt;
    url.port_ = static_cast<uint16_t>(*port);
    authority = authority.substr(0, colon);
  }
  if (authority.empty()) return std::nullopt;
  url.host_ = util::ToLower(authority);
  if (url.port_ && *url.port_ == (url.scheme_ == "https" ? 443 : 80)) {
    url.port_.reset();
  }

  if (authority_end == std::string_view::npos) return url;
  text.remove_prefix(authority_end);

  size_t query_pos = text.find('?');
  size_t frag_pos = text.find('#');
  size_t path_end = std::min(query_pos, frag_pos);
  std::string_view path = text.substr(0, path_end);
  url.path_ = path.empty() ? "/" : std::string(path);

  if (query_pos != std::string_view::npos && query_pos < frag_pos) {
    size_t query_len = (frag_pos == std::string_view::npos)
                           ? std::string_view::npos
                           : frag_pos - query_pos - 1;
    url.query_ = std::string(text.substr(query_pos + 1, query_len));
  }
  if (frag_pos != std::string_view::npos) {
    url.fragment_ = std::string(text.substr(frag_pos + 1));
  }
  return url;
}

uint16_t ComponentUrl::EffectivePort() const {
  if (port_) return *port_;
  return scheme_ == "https" ? 443 : 80;
}

std::string ComponentUrl::Origin() const {
  std::string out = scheme_ + "://" + host_;
  if (port_) out += ":" + std::to_string(*port_);
  return out;
}

std::string ComponentUrl::Serialize() const {
  std::string out = Origin() + path_;
  if (!query_.empty()) out += "?" + query_;
  if (!fragment_.empty()) out += "#" + fragment_;
  return out;
}

std::string ComponentUrl::RequestTarget() const {
  std::string out = path_;
  if (!query_.empty()) out += "?" + query_;
  return out;
}

std::vector<std::pair<std::string, std::string>> ComponentUrl::QueryParams()
    const {
  return net::DecodeQueryParams(query_);
}

std::optional<std::string> ComponentUrl::QueryParam(
    std::string_view name) const {
  for (auto& [key, value] : QueryParams()) {
    if (key == name) return value;
  }
  return std::nullopt;
}

void ComponentUrl::AddQueryParam(std::string_view name,
                                 std::string_view value) {
  std::string pair =
      util::PercentEncode(name) + "=" + util::PercentEncode(value);
  if (query_.empty()) {
    query_ = std::move(pair);
  } else {
    query_ += "&" + pair;
  }
}

}  // namespace panoptes::oracle
