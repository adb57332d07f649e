// Whole-jar cookie scan: the CookieJar that net::CookieJar's domain
// index replaced. Production code never uses it — it exists so the
// differential tests can check that the indexed jar answers every
// lookup with exactly the cookies, in exactly the order, that a scan
// of the whole jar followed by the same unstable sort produces.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "net/cookies.h"

namespace panoptes::oracle {

class ScanCookieJar {
 public:
  // Replaces the first cookie with the same name, domain and path, or
  // appends.
  void Store(net::Cookie cookie);

  bool SetFromHeader(std::string_view header, const net::Url& request_url,
                     util::SimTime now);

  // Evicts expired cookies, then tests every cookie in jar order and
  // sorts the matches by path length (longest first) with std::sort.
  std::vector<const net::Cookie*> MatchingCookies(const net::Url& url,
                                                  util::SimTime now);

  std::string CookieHeaderFor(const net::Url& url, util::SimTime now);

  size_t size() const { return cookies_.size(); }

 private:
  std::vector<net::Cookie> cookies_;
};

}  // namespace panoptes::oracle
