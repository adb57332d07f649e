#include "browser/engine.h"

#include "util/strings.h"

namespace panoptes::browser {

namespace {

constexpr std::string_view kAttrs[] = {"src=\"", "href=\"", "data-fetch=\""};

}  // namespace

std::vector<net::Url> ExtractResourceUrls(std::string_view html) {
  std::vector<net::Url> out;
  for (auto attr : kAttrs) {
    size_t pos = 0;
    while ((pos = html.find(attr, pos)) != std::string_view::npos) {
      pos += attr.size();
      size_t end = html.find('"', pos);
      if (end == std::string_view::npos) break;
      std::string_view value = html.substr(pos, end - pos);
      pos = end + 1;
      if (!util::StartsWith(value, "http")) continue;
      if (auto url = net::Url::Parse(value)) out.push_back(std::move(*url));
    }
  }
  return out;
}

WebEngine::WebEngine(BrowserContext* ctx)
    : ctx_(ctx),
      adblock_enabled_(ctx->spec().engine_adblock) {
  if (adblock_enabled_) filter_ = web::FilterList::DefaultEasyList();
}

net::HttpRequest WebEngine::BuildRequest(const net::Url& url,
                                         const net::Url& referer,
                                         bool incognito, bool is_document) {
  net::HttpRequest request;
  request.method = net::HttpMethod::kGet;
  request.url = url;
  // Real engines ship a rich header set on every subresource fetch
  // (content negotiation, client hints, fetch metadata); native app
  // pings are much terser. This asymmetry is why Fig 4's byte overhead
  // ranks browsers differently from Fig 2's request-count ratio.
  // Every name is distinct, so the headers are Added in wire order;
  // the reserve covers the User-Agent and taint headers SendEngine
  // adds on top.
  net::HttpHeaders& headers = request.headers;
  headers.Reserve(13);
  headers.Add("Accept", is_document
                            ? "text/html,application/xhtml+xml,application/"
                              "xml;q=0.9,image/avif,image/webp,*/*;q=0.8"
                            : "*/*");
  headers.Add("Accept-Language", "el-GR,el;q=0.9,en-US;q=0.8");
  headers.Add("Accept-Encoding", "gzip, deflate, br");
  headers.Add("sec-ch-ua-platform", "\"Android\"");
  headers.Add("sec-ch-ua-mobile", "?1");
  headers.Add("Sec-Fetch-Site", is_document ? "none" : "cross-site");
  headers.Add("Sec-Fetch-Mode", is_document ? "navigate" : "no-cors");
  headers.Add("Sec-Fetch-Dest", is_document ? "document" : "empty");
  if (is_document) headers.Add("Upgrade-Insecure-Requests", "1");
  if (!referer.host().empty()) headers.Add("Referer", referer.Origin() + "/");
  if (!incognito) {
    std::string cookie_header =
        ctx_->app().cookies.CookieHeaderFor(url, ctx_->clock().Now());
    if (!cookie_header.empty()) headers.Add("Cookie", cookie_header);
  }
  return request;
}

void WebEngine::StoreCookies(const net::Url& url,
                             const net::HttpResponse& response,
                             bool incognito) {
  if (incognito) return;
  if (auto set_cookie = response.headers.Get("Set-Cookie")) {
    ctx_->app().cookies.SetFromHeader(*set_cookie, url,
                                      ctx_->clock().Now());
  }
}

namespace {

bool IsRedirectStatus(int status) {
  return status == 301 || status == 302 || status == 303 || status == 307 ||
         status == 308;
}

}  // namespace

PageLoadResult WebEngine::LoadPage(const net::Url& url, bool incognito) {
  PageLoadResult result;
  util::SimTime start = ctx_->clock().Now();

  // Document fetch, following server redirects up to kMaxRedirectHops.
  // Every hop of one navigation carries the same freshly minted chain
  // token (plus its hop index), so the proxy's flow records link into
  // one provenance chain. Server redirects of an address-bar
  // navigation carry no Referer; cookies set by a redirecting response
  // (the first-party bounce pattern) are stored before following it.
  const uint64_t chain = ctx_->NextChainToken();
  net::Url doc_url = url;
  int hop = 0;
  device::SendOutcome doc;
  for (;;) {
    net::HttpRequest doc_request =
        BuildRequest(doc_url, net::Url(), incognito, /*is_document=*/true);
    ++result.requests_attempted;
    doc = ctx_->SendEngine(std::move(doc_request), chain,
                           static_cast<uint32_t>(hop));
    result.bytes_sent += doc.request_bytes;
    if (!doc.ok) break;
    auto location = doc.response.headers.Get("Location");
    if (!IsRedirectStatus(doc.response.status) || !location) break;
    if (hop >= kMaxRedirectHops ||
        ctx_->clock().Now() - start >= kLoadTimeout) {
      break;
    }
    auto next = net::Url::Parse(*location);
    if (!next.has_value()) break;  // unresolvable hop: navigation fails
    ++result.requests_succeeded;
    result.bytes_received += doc.response_bytes;
    StoreCookies(doc_url, doc.response, incognito);
    doc_url = std::move(*next);
    ++hop;
  }
  result.redirect_hops = hop;
  result.final_url = doc_url;
  if (!doc.ok || doc.response.status != 200) {
    result.elapsed = ctx_->clock().Now() - start;
    return result;
  }
  ++result.requests_succeeded;
  result.ok = true;
  result.bytes_received += doc.response_bytes;
  result.fetched.push_back(doc_url);
  StoreCookies(doc_url, doc.response, incognito);

  // Subresources belong to the committed (post-redirect) document:
  // first-party checks, Referer and cookie scoping all key on where
  // the navigation landed, not where it started.
  for (const auto& resource_url : ExtractResourceUrls(doc.response.body)) {
    if (ctx_->clock().Now() - start >= kLoadTimeout) break;
    if (adblock_enabled_ &&
        filter_.ShouldBlock(resource_url, doc_url.host())) {
      ++result.blocked_by_adblock;
      continue;
    }
    net::HttpRequest request =
        BuildRequest(resource_url, doc_url, incognito, /*is_document=*/false);
    ++result.requests_attempted;
    auto outcome = ctx_->SendEngine(std::move(request));
    result.bytes_sent += outcome.request_bytes;
    if (outcome.ok && outcome.response.status < 400) {
      ++result.requests_succeeded;
      result.bytes_received += outcome.response_bytes;
      result.fetched.push_back(resource_url);
      StoreCookies(resource_url, outcome.response, incognito);
    }
  }

  result.elapsed = ctx_->clock().Now() - start;
  result.dom_content_loaded = result.elapsed < kLoadTimeout;
  return result;
}

}  // namespace panoptes::browser
