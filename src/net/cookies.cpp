#include "net/cookies.h"

#include <algorithm>
#include <functional>

#include "util/strings.h"

namespace panoptes::net {

bool CookieDomainMatch(std::string_view host, std::string_view domain) {
  if (util::EqualsIgnoreCase(host, domain)) return true;
  if (host.size() <= domain.size()) return false;
  std::string_view tail = host.substr(host.size() - domain.size());
  return util::EqualsIgnoreCase(tail, domain) &&
         host[host.size() - domain.size() - 1] == '.';
}

bool CookiePathMatch(std::string_view request_path,
                     std::string_view cookie_path) {
  if (cookie_path.empty()) return false;
  if (request_path == cookie_path) return true;
  if (!util::StartsWith(request_path, cookie_path)) return false;
  if (cookie_path.back() == '/') return true;
  return request_path.size() > cookie_path.size() &&
         request_path[cookie_path.size()] == '/';
}

std::optional<Cookie> ParseSetCookie(std::string_view header,
                                     const Url& request_url,
                                     util::SimTime now) {
  auto pieces = util::Split(header, ';');
  if (pieces.empty()) return std::nullopt;

  std::string_view name_value = util::Trim(pieces[0]);
  size_t eq = name_value.find('=');
  if (eq == std::string_view::npos || eq == 0) return std::nullopt;

  Cookie cookie;
  cookie.name = std::string(util::Trim(name_value.substr(0, eq)));
  cookie.value = std::string(util::Trim(name_value.substr(eq + 1)));
  cookie.domain = request_url.host();

  for (size_t i = 1; i < pieces.size(); ++i) {
    std::string_view attr = util::Trim(pieces[i]);
    size_t attr_eq = attr.find('=');
    std::string key = util::ToLower(
        attr_eq == std::string_view::npos ? attr : attr.substr(0, attr_eq));
    std::string_view value =
        attr_eq == std::string_view::npos
            ? std::string_view{}
            : util::Trim(attr.substr(attr_eq + 1));

    if (key == "secure") {
      cookie.secure = true;
    } else if (key == "httponly") {
      cookie.http_only = true;
    } else if (key == "path") {
      if (!value.empty() && value[0] == '/') {
        cookie.path = std::string(value);
      }
    } else if (key == "max-age") {
      auto seconds = util::ParseUint(value);
      if (seconds) {
        cookie.expires =
            now + util::Duration::Seconds(static_cast<int64_t>(*seconds));
      } else if (util::StartsWith(value, "-")) {
        cookie.expires = now;  // immediate expiry (deletion)
      }
    } else if (key == "domain") {
      std::string_view domain = value;
      if (!domain.empty() && domain[0] == '.') domain.remove_prefix(1);
      if (domain.empty()) continue;
      // An origin may only widen to a parent domain of itself.
      if (!CookieDomainMatch(request_url.host(), domain)) {
        return std::nullopt;
      }
      cookie.domain = util::ToLower(domain);
      cookie.host_only = false;
    }
    // "expires=<date>" is accepted but ignored (Max-Age wins in real
    // jars; the simulation only emits Max-Age).
  }
  return cookie;
}

void CookieJar::Store(Cookie cookie) {
  NoteExpiry(cookie);
  std::vector<size_t>& positions = by_domain_[util::ToLower(cookie.domain)];
  for (size_t position : positions) {
    Cookie& existing = cookies_[position];
    if (existing.name == cookie.name && existing.domain == cookie.domain &&
        existing.path == cookie.path) {
      existing = std::move(cookie);
      return;
    }
  }
  positions.push_back(cookies_.size());
  cookies_.push_back(std::move(cookie));
}

bool CookieJar::SetFromHeader(std::string_view header,
                              const Url& request_url, util::SimTime now) {
  auto cookie = ParseSetCookie(header, request_url, now);
  if (!cookie) return false;
  Store(std::move(*cookie));
  return true;
}

void CookieJar::Clear() {
  cookies_.clear();
  by_domain_.clear();
  next_expiry_.reset();
}

void CookieJar::NoteExpiry(const Cookie& cookie) {
  if (cookie.expires && (!next_expiry_ || *cookie.expires < *next_expiry_)) {
    next_expiry_ = cookie.expires;
  }
}

void CookieJar::Evict(util::SimTime now) {
  if (!next_expiry_ || now < *next_expiry_) return;
  std::erase_if(cookies_,
                [&](const Cookie& cookie) { return cookie.IsExpiredAt(now); });
  by_domain_.clear();
  next_expiry_.reset();
  for (size_t position = 0; position < cookies_.size(); ++position) {
    NoteExpiry(cookies_[position]);
    by_domain_[util::ToLower(cookies_[position].domain)].push_back(position);
  }
}

std::vector<const Cookie*> CookieJar::MatchingCookies(const Url& url,
                                                      util::SimTime now) {
  Evict(now);
  std::vector<const Cookie*> out;
  const bool https = url.scheme() == "https";
  std::string folded;
  // The host, then each parent domain (the text after each dot): the
  // only domains CookieDomainMatch accepts for this host. Host-only
  // cookies match under the host itself alone.
  std::string_view domain = util::LowerIfNeeded(url.host(), folded);
  for (bool is_host = true;; is_host = false) {
    auto it = by_domain_.find(domain);
    if (it != by_domain_.end()) {
      for (size_t position : it->second) {
        const Cookie& cookie = cookies_[position];
        if (cookie.host_only && !is_host) continue;
        if (cookie.secure && !https) continue;
        if (!CookiePathMatch(url.path(), cookie.path)) continue;
        out.push_back(&cookie);
      }
    }
    size_t dot = domain.find('.');
    if (dot == std::string_view::npos) break;
    domain.remove_prefix(dot + 1);
  }
  // Back to jar order (addresses in cookies_), so the unstable sort
  // below sees exactly the sequence a whole-jar scan hands it.
  std::sort(out.begin(), out.end(), std::less<const Cookie*>());
  std::sort(out.begin(), out.end(), [](const Cookie* a, const Cookie* b) {
    return a->path.size() > b->path.size();  // longer paths first
  });
  return out;
}

std::string CookieJar::CookieHeaderFor(const Url& url, util::SimTime now) {
  std::string out;
  for (const auto* cookie : MatchingCookies(url, now)) {
    if (!out.empty()) out += "; ";
    out.append(cookie->name).append("=").append(cookie->value);
  }
  return out;
}

}  // namespace panoptes::net
