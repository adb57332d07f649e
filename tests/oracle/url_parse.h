// Component-splitting URL parser: the net::Url that kept scheme, host,
// port, path, query and fragment as six owned strings, before Url became
// canonical text sliced by UrlView::Parse. Production code never uses
// it — it exists so the differential tests can check that the one
// remaining parser accepts exactly the inputs this one did and agrees
// with it on every component.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace panoptes::oracle {

class ComponentUrl {
 public:
  ComponentUrl() = default;

  // Accepts absolute http(s) URLs with a non-empty host and a valid port
  // (1..65535, no leading zero); folds scheme and host to lowercase and
  // drops a scheme-default port.
  static std::optional<ComponentUrl> Parse(std::string_view text);

  const std::string& scheme() const { return scheme_; }
  const std::string& host() const { return host_; }
  uint16_t EffectivePort() const;
  bool has_explicit_port() const { return port_.has_value(); }
  const std::string& path() const { return path_; }
  const std::string& query() const { return query_; }
  const std::string& fragment() const { return fragment_; }

  std::string Origin() const;
  std::string Serialize() const;
  std::string RequestTarget() const;
  std::vector<std::pair<std::string, std::string>> QueryParams() const;
  std::optional<std::string> QueryParam(std::string_view name) const;
  void AddQueryParam(std::string_view name, std::string_view value);

 private:
  std::string scheme_;
  std::string host_;
  std::optional<uint16_t> port_;
  std::string path_ = "/";
  std::string query_;
  std::string fragment_;
};

}  // namespace panoptes::oracle
