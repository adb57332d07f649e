#include "net/url.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace panoptes::net {

std::optional<Url> Url::Parse(std::string_view text) {
  // Rewrite only what Url normalizes; UrlView::Parse validates and
  // slices the result.
  const size_t scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos) return std::nullopt;
  const size_t authority_end = text.find_first_of("/?#", scheme_end + 3);
  std::string folded;
  std::string_view origin =
      util::LowerIfNeeded(text.substr(0, authority_end), folded);
  const std::string_view default_port =
      origin.substr(0, scheme_end) == "https" ? ":443" : ":80";
  if (origin.ends_with(default_port)) {
    origin.remove_suffix(default_port.size());
    // A host holding ':' would re-slice as host and port.
    if (origin.find(':', scheme_end + 3) != std::string_view::npos) {
      return std::nullopt;
    }
  }

  const std::string_view rest = authority_end == std::string_view::npos
                                    ? std::string_view()
                                    : text.substr(authority_end);
  const size_t fragment = std::min(rest.find('#'), rest.size());
  const size_t query = std::min(rest.substr(0, fragment).find('?'), fragment);
  std::string canonical;
  canonical.reserve(origin.size() + rest.size() + 1);
  canonical += origin;
  if (query == 0) canonical += '/';
  canonical += rest.substr(0, query);
  // A bare '?' or '#' carries nothing and is dropped.
  if (fragment - query > 1) canonical += rest.substr(query, fragment - query);
  if (rest.size() - fragment > 1) canonical += rest.substr(fragment);

  auto view = UrlView::Parse(canonical);
  if (!view) return std::nullopt;
  return Url(std::move(canonical), *view);
}

Url Url::MustParse(std::string_view text) {
  auto url = Parse(text);
  if (!url) {
    std::fprintf(stderr, "Url::MustParse failed: %.*s\n",
                 static_cast<int>(text.size()), text.data());
    std::abort();
  }
  return *url;
}

void Url::AddQueryParam(std::string_view name, std::string_view value) {
  // The pair ends the query, so it goes in before any fragment.
  const std::string pair = (layout_.has_query_ ? "&" : "?") +
                           util::PercentEncode(name) + "=" +
                           util::PercentEncode(value);
  text_.insert(layout_.QueryEnd(), pair);
  layout_.query_len_ += static_cast<uint32_t>(
      layout_.has_query_ ? pair.size() : pair.size() - 1);
  layout_.has_query_ = true;
}

std::vector<std::pair<std::string, std::string>> DecodeQueryParams(
    std::string_view query) {
  std::vector<std::pair<std::string, std::string>> out;
  ForEachQueryParamRaw(query, [&](std::string_view key, std::string_view value) {
    out.emplace_back(util::PercentDecode(key), util::PercentDecode(value));
  });
  return out;
}

namespace {

bool HasAsciiUpper(std::string_view s) {
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') return true;
  }
  return false;
}

}  // namespace

std::optional<UrlView> UrlView::Parse(std::string_view text) {
  UrlView view;
  view.text_ = text;
  size_t scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos) return std::nullopt;
  std::string_view scheme = text.substr(0, scheme_end);
  if (scheme != "http" && scheme != "https") return std::nullopt;
  view.scheme_len_ = static_cast<uint32_t>(scheme_end);

  std::string_view rest = text.substr(scheme_end + 3);
  size_t authority_end = rest.find_first_of("/?#");
  // Canonical text always has a path (at least "/").
  if (authority_end == std::string_view::npos) return std::nullopt;
  if (rest[authority_end] != '/') return std::nullopt;  // empty path
  std::string_view authority = rest.substr(0, authority_end);
  if (authority.empty()) return std::nullopt;

  size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    std::string_view digits = authority.substr(colon + 1);
    auto port = util::ParseUint(digits);
    if (!port || *port == 0 || *port > 65535) return std::nullopt;
    // Leading-zero digits and a scheme-default port are non-canonical
    // spellings of a port; a view can only slice, not rewrite.
    if (digits.front() == '0') return std::nullopt;
    if (*port == (scheme_end == 5 ? 443u : 80u)) return std::nullopt;
    view.port_len_ = static_cast<uint32_t>(digits.size());
    authority = authority.substr(0, colon);
  }
  if (authority.empty() || HasAsciiUpper(authority)) return std::nullopt;
  view.host_len_ = static_cast<uint32_t>(authority.size());

  std::string_view tail = rest.substr(authority_end);
  size_t query_pos = tail.find('?');
  size_t frag_pos = tail.find('#');
  size_t path_end = std::min(query_pos, frag_pos);
  view.path_len_ = static_cast<uint32_t>(
      path_end == std::string_view::npos ? tail.size() : path_end);

  if (query_pos != std::string_view::npos && query_pos < frag_pos) {
    size_t query_end =
        frag_pos == std::string_view::npos ? tail.size() : frag_pos;
    // Canonical text has no bare '?' (empty query); nor a bare '#'.
    if (query_end == query_pos + 1) return std::nullopt;
    view.has_query_ = true;
    view.query_len_ = static_cast<uint32_t>(query_end - query_pos - 1);
  }
  if (frag_pos != std::string_view::npos) {
    if (frag_pos + 1 == tail.size()) return std::nullopt;
    view.has_fragment_ = true;
  }
  return view;
}

std::optional<UrlView> UrlView::FromLayout(std::string_view text,
                                           const Layout& layout) {
  const uint64_t scheme = layout.scheme_len;
  if ((scheme != 4 || !text.starts_with("http://")) &&
      (scheme != 5 || !text.starts_with("https://"))) {
    return std::nullopt;
  }
  if (layout.host_len == 0 || layout.path_len == 0 || layout.port_len > 5 ||
      (layout.has_query ? layout.query_len == 0 : layout.query_len != 0)) {
    return std::nullopt;
  }
  // 64-bit sums: no u32 field can wrap a position.
  const uint64_t host_end = scheme + 3 + layout.host_len;
  const uint64_t path_begin =
      host_end + (layout.port_len > 0 ? layout.port_len + 1 : 0);
  const uint64_t path_end = path_begin + layout.path_len;
  const uint64_t query_end =
      path_end + (layout.has_query ? layout.query_len + 1 : 0);
  // A fragment holds at least one byte past its '#'.
  if (query_end + (layout.has_fragment ? 2 : 0) > text.size()) {
    return std::nullopt;
  }
  if (!layout.has_fragment && query_end != text.size()) return std::nullopt;
  if (layout.port_len > 0) {
    if (text[host_end] != ':') return std::nullopt;
    const std::string_view digits = text.substr(host_end + 1, layout.port_len);
    auto port = util::ParseUint(digits);
    if (!port || *port == 0 || *port > 65535 || digits.front() == '0' ||
        *port == (scheme == 5 ? 443u : 80u)) {
      return std::nullopt;
    }
  }
  if (text[path_begin] != '/' ||
      (layout.has_query && text[path_end] != '?') ||
      (layout.has_fragment && text[query_end] != '#')) {
    return std::nullopt;
  }
  UrlView view;
  view.text_ = text;
  view.scheme_len_ = layout.scheme_len;
  view.host_len_ = layout.host_len;
  view.port_len_ = layout.port_len;
  view.path_len_ = layout.path_len;
  view.query_len_ = layout.query_len;
  view.has_query_ = layout.has_query;
  view.has_fragment_ = layout.has_fragment;
  return view;
}

uint16_t UrlView::EffectivePort() const {
  if (port_len_ > 0) {
    std::string_view digits =
        text_.substr(scheme_len_ + 3 + host_len_ + 1, port_len_);
    return static_cast<uint16_t>(*util::ParseUint(digits));
  }
  return scheme_len_ == 5 ? 443 : 80;  // "https" vs "http"
}

std::optional<std::string> UrlView::QueryParam(std::string_view name) const {
  for (auto& [key, value] : QueryParams()) {
    if (key == name) return value;
  }
  return std::nullopt;
}

std::string EncodeQuery(
    const std::vector<std::pair<std::string, std::string>>& params) {
  std::string out;
  for (const auto& [name, value] : params) {
    if (!out.empty()) out += "&";
    out += util::PercentEncode(name) + "=" + util::PercentEncode(value);
  }
  return out;
}

}  // namespace panoptes::net
