// Cookie jar (RFC 6265 subset): Set-Cookie parsing with attributes,
// domain/path matching, expiry against the simulated clock, and
// Secure handling.
//
// Cookies matter to the study in one precise way: "clear browsing
// data" wipes them — and the paper shows it does NOT stop tracking,
// because the persistent identifiers live elsewhere. Modeling a real
// jar makes that contrast concrete and lets incognito's no-persistence
// property be tested at the right layer.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/url.h"
#include "util/clock.h"
#include "util/strings.h"

namespace panoptes::net {

struct Cookie {
  std::string name;
  std::string value;
  std::string domain;       // host-only when host_only is true
  bool host_only = true;
  std::string path = "/";
  bool secure = false;
  bool http_only = false;
  // Session cookies (no Expires/Max-Age) have no expiry.
  std::optional<util::SimTime> expires;

  bool IsExpiredAt(util::SimTime now) const {
    return expires.has_value() && *expires <= now;
  }
};

// Parses one Set-Cookie header value in the context of `request_url`.
// Returns nullopt for malformed input or a domain attribute the origin
// may not set (not a parent domain of the host).
std::optional<Cookie> ParseSetCookie(std::string_view header,
                                     const Url& request_url,
                                     util::SimTime now);

class CookieJar {
 public:
  // Stores (or replaces by name+domain+path) a cookie.
  void Store(Cookie cookie);

  // Processes a Set-Cookie header for a response to `request_url`.
  // Returns false when the header was rejected.
  bool SetFromHeader(std::string_view header, const Url& request_url,
                     util::SimTime now);

  // The "Cookie:" header value for a request to `url` at `now`
  // ("a=1; b=2"), or empty when nothing matches. Expired cookies are
  // evicted as a side effect.
  std::string CookieHeaderFor(const Url& url, util::SimTime now);

  // All live cookies matching `url` (most-specific path first; equal
  // path lengths in the order std::sort leaves jar order). Only the
  // buckets of the host and its parent domains are visited. Expired
  // cookies are evicted as a side effect.
  std::vector<const Cookie*> MatchingCookies(const Url& url,
                                             util::SimTime now);

  void Clear();
  size_t size() const { return cookies_.size(); }

 private:
  void Evict(util::SimTime now);
  void NoteExpiry(const Cookie& cookie);

  // Jar order: a replaced cookie keeps its slot and eviction keeps the
  // survivors' relative order.
  std::vector<Cookie> cookies_;
  // Lowercased cookie domain → positions in cookies_, ascending.
  std::unordered_map<std::string, std::vector<size_t>, util::StringHash,
                     std::equal_to<>>
      by_domain_;
  // No stored cookie expires before this, so Evict has nothing to do
  // until then. Unset while no cookie carries an expiry.
  std::optional<util::SimTime> next_expiry_;
};

// Domain-match per RFC 6265 §5.1.3.
bool CookieDomainMatch(std::string_view host, std::string_view domain);

// Path-match per RFC 6265 §5.1.4. An empty cookie path matches
// nothing (ParseSetCookie never produces one; Store accepts it).
bool CookiePathMatch(std::string_view request_path,
                     std::string_view cookie_path);

}  // namespace panoptes::net
