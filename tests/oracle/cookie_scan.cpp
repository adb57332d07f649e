#include "oracle/cookie_scan.h"

#include <algorithm>

#include "util/strings.h"

namespace panoptes::oracle {

void ScanCookieJar::Store(net::Cookie cookie) {
  for (auto& existing : cookies_) {
    if (existing.name == cookie.name && existing.domain == cookie.domain &&
        existing.path == cookie.path) {
      existing = std::move(cookie);
      return;
    }
  }
  cookies_.push_back(std::move(cookie));
}

bool ScanCookieJar::SetFromHeader(std::string_view header,
                                  const net::Url& request_url,
                                  util::SimTime now) {
  auto cookie = net::ParseSetCookie(header, request_url, now);
  if (!cookie) return false;
  Store(std::move(*cookie));
  return true;
}

std::vector<const net::Cookie*> ScanCookieJar::MatchingCookies(
    const net::Url& url, util::SimTime now) {
  cookies_.erase(std::remove_if(cookies_.begin(), cookies_.end(),
                                [&](const net::Cookie& cookie) {
                                  return cookie.IsExpiredAt(now);
                                }),
                 cookies_.end());
  std::vector<const net::Cookie*> out;
  bool https = url.scheme() == "https";
  for (const auto& cookie : cookies_) {
    if (cookie.secure && !https) continue;
    bool domain_ok = cookie.host_only
                         ? util::EqualsIgnoreCase(url.host(), cookie.domain)
                         : net::CookieDomainMatch(url.host(), cookie.domain);
    if (!domain_ok) continue;
    if (!net::CookiePathMatch(url.path(), cookie.path)) continue;
    out.push_back(&cookie);
  }
  std::sort(out.begin(), out.end(),
            [](const net::Cookie* a, const net::Cookie* b) {
              return a->path.size() > b->path.size();  // longer paths first
            });
  return out;
}

std::string ScanCookieJar::CookieHeaderFor(const net::Url& url,
                                           util::SimTime now) {
  std::string out;
  for (const auto* cookie : MatchingCookies(url, now)) {
    if (!out.empty()) out += "; ";
    out += cookie->name + "=" + cookie->value;
  }
  return out;
}

}  // namespace panoptes::oracle
