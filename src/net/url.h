// URL model (RFC 3986 subset: http/https, host, port, path, query,
// fragment) with query-parameter helpers.
//
// URLs are the central object of the study: the taint splitter keys on
// them, the history-leak detector searches for them (plain, percent-
// encoded or Base64-encoded) inside other requests' parameters.
//
// One layout, one parser. A URL is its canonical text ("scheme://host
// [:port]path[?query][#fragment]") plus the offsets UrlView::Parse
// slices it at. UrlView borrows the text (the arena-backed FlowStore
// keeps it stable); Url owns it. Url::Parse only rewrites the spellings
// it normalizes into that canonical text and hands it to UrlView::Parse,
// so the two forms cannot disagree on a component.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace panoptes::net {

// Builds "name=value&..." from pairs with percent-encoding.
std::string EncodeQuery(
    const std::vector<std::pair<std::string, std::string>>& params);

// Splits a raw query string (without '?') into undecoded (name, value)
// pieces in order of appearance and calls fn(raw_name, raw_value) for
// each: pieces are '&'-separated, empty pieces are skipped, and a piece
// without '=' yields an empty value. This is the single split routine
// behind DecodeQueryParams, so callback consumers (which can skip the
// per-pair allocations when nothing is percent-encoded) can never drift
// from the materialized form.
template <typename Fn>
void ForEachQueryParamRaw(std::string_view query, Fn&& fn) {
  size_t start = 0;
  while (start < query.size()) {
    size_t amp = query.find('&', start);
    size_t end = amp == std::string_view::npos ? query.size() : amp;
    std::string_view piece = query.substr(start, end - start);
    if (!piece.empty()) {
      size_t eq = piece.find('=');
      if (eq == std::string_view::npos) {
        fn(piece, std::string_view());
      } else {
        fn(piece.substr(0, eq), piece.substr(eq + 1));
      }
    }
    if (amp == std::string_view::npos) break;
    start = amp + 1;
  }
}

// Decoded (name, value) pairs of a raw query string (without '?'), in
// order of appearance — the single decode routine behind
// UrlView::QueryParams.
std::vector<std::pair<std::string, std::string>> DecodeQueryParams(
    std::string_view query);

class Url;

// Non-owning view of a canonical URL text.
//
// The view slices one contiguous text in Url::Serialize form; the
// arena-backed FlowStore keeps that text stable for the store's
// lifetime, so flows expose their URLs without per-flow string
// ownership.
class UrlView {
 public:
  UrlView() = default;

  // Splits `text` without allocating — the only URL parser. `text`
  // must outlive the view. Returns nullopt for a scheme other than
  // lowercase http/https, an empty or uppercase host, an invalid port
  // (zero, > 65535, non-digits, leading zeros, or the scheme default)
  // and for text without a path, with a bare '?' or a bare '#': a view
  // can only slice, so it accepts exactly the canonical spellings.
  static std::optional<UrlView> Parse(std::string_view text);

  // The offsets Parse finds, apart from the text: what a flow-store
  // image stores per URL so that decoding never parses again.
  struct Layout {
    uint32_t scheme_len = 0;
    uint32_t host_len = 0;
    uint32_t port_len = 0;
    uint32_t path_len = 0;
    uint32_t query_len = 0;
    bool has_query = false;
    bool has_fragment = false;
  };
  Layout layout() const {
    return Layout{scheme_len_, host_len_, port_len_, path_len_,
                  query_len_,  has_query_, has_fragment_};
  }
  // A view of `text` with a stored layout. Checks, without scanning the
  // parts, that the parts tile the text exactly, that the delimiters
  // between them ("://", ':', '/', '?', '#') are where the layout puts
  // them, and that the scheme and port are what Parse accepts; nullopt
  // otherwise. Every accessor of the result stays inside `text`.
  static std::optional<UrlView> FromLayout(std::string_view text,
                                           const Layout& layout);

  std::string_view text() const { return text_; }
  std::string_view scheme() const { return text_.substr(0, scheme_len_); }
  std::string_view host() const {
    return text_.substr(scheme_len_ + 3, host_len_);
  }
  // "host[:port]", the HTTP/1.1 Host header value.
  std::string_view authority() const {
    return text_.substr(scheme_len_ + 3, PathBegin() - scheme_len_ - 3);
  }
  // Port from the URL, or the scheme default (80/443).
  uint16_t EffectivePort() const;
  bool has_explicit_port() const { return port_len_ > 0; }
  std::string_view path() const {  // always begins '/'
    return text_.substr(PathBegin(), path_len_);
  }
  std::string_view query() const {  // without '?'; empty when absent
    return has_query_ ? text_.substr(PathBegin() + path_len_ + 1, query_len_)
                      : std::string_view();
  }
  std::string_view fragment() const {  // without '#'; empty when absent
    return has_fragment_ ? text_.substr(QueryEnd() + 1) : std::string_view();
  }

  // "https://host[:port]" with the port omitted when default.
  std::string Origin() const {
    return std::string(text_.substr(0, PathBegin()));
  }

  std::string Serialize() const { return std::string(text_); }

  // Path plus "?query" when non-empty (the HTTP/1.1 request target).
  std::string RequestTarget() const {
    return std::string(text_.substr(PathBegin(), QueryEnd() - PathBegin()));
  }

  // Decoded (name, value) pairs in order of appearance.
  std::vector<std::pair<std::string, std::string>> QueryParams() const {
    return DecodeQueryParams(query());
  }
  // First value for `name` after decoding; nullopt if absent.
  std::optional<std::string> QueryParam(std::string_view name) const;

  // Owning copy of the text and layout, for call sites that must
  // outlive the backing store.
  Url ToUrl() const;

  // Re-points the view at `text`, which must hold the same bytes as
  // text() at a different address (an arena copy, an owning
  // Url's buffer). The offsets carry over unchanged, so this is a
  // pointer swap, not a re-parse.
  UrlView RebasedTo(std::string_view text) const {
    UrlView out = *this;
    out.text_ = text;
    return out;
  }

 private:
  friend class Url;

  size_t PathBegin() const {
    return scheme_len_ + 3 + host_len_ + (port_len_ > 0 ? port_len_ + 1 : 0);
  }
  // End of the request target: where '#' or the text ends.
  size_t QueryEnd() const {
    return PathBegin() + path_len_ + (has_query_ ? query_len_ + 1 : 0);
  }

  std::string_view text_;
  uint32_t scheme_len_ = 0;
  uint32_t host_len_ = 0;
  uint32_t port_len_ = 0;  // digits only, 0 when no explicit port
  uint32_t path_len_ = 0;
  uint32_t query_len_ = 0;  // 0 when !has_query_
  bool has_query_ = false;
  bool has_fragment_ = false;
};

// Owning URL: its canonical text plus the UrlView layout over it.
// Accessors slice the text, so they are valid until the Url is modified
// or destroyed.
class Url {
 public:
  // No scheme and no host; the path is "/". Serializes as ":///", a
  // text no parse produces.
  Url() { layout_.path_len_ = 1; }

  // Parses an absolute http(s) URL. Folds an uppercase scheme or host,
  // drops a scheme-default port (":443" on https, ":80" on http), writes
  // a missing path as "/" and drops a bare '?' or '#' — so every
  // spelling of a URL serializes, and compares, as one text — then
  // rejects whatever UrlView::Parse rejects in that text.
  static std::optional<Url> Parse(std::string_view text);

  // Convenience for literals that are known-valid; aborts on failure.
  static Url MustParse(std::string_view text);

  std::string_view scheme() const { return view().scheme(); }
  std::string_view host() const { return view().host(); }
  std::string_view authority() const { return view().authority(); }
  uint16_t EffectivePort() const { return view().EffectivePort(); }
  bool has_explicit_port() const { return layout_.has_explicit_port(); }
  std::string_view path() const { return view().path(); }
  std::string_view query() const { return view().query(); }
  std::string_view fragment() const { return view().fragment(); }
  std::string Origin() const { return view().Origin(); }
  // The canonical text; Parse(Serialize()) is the identity.
  const std::string& Serialize() const { return text_; }
  std::string RequestTarget() const { return view().RequestTarget(); }
  std::vector<std::pair<std::string, std::string>> QueryParams() const {
    return view().QueryParams();
  }
  std::optional<std::string> QueryParam(std::string_view name) const {
    return view().QueryParam(name);
  }

  // Appends an encoded name=value pair to the query string.
  void AddQueryParam(std::string_view name, std::string_view value);

  // This URL as a view over its own text.
  UrlView view() const { return layout_.RebasedTo(text_); }

  friend bool operator==(const Url& a, const Url& b) {
    return a.text_ == b.text_;
  }

 private:
  friend class UrlView;

  Url(std::string text, const UrlView& layout)
      : text_(std::move(text)), layout_(layout.RebasedTo({})) {}

  std::string text_ = ":///";
  // Offsets into text_, with no text of its own: copying or moving a
  // short Url moves its characters (small-string buffer), so a stored
  // view would dangle. view() re-points it on each access.
  UrlView layout_;
};

inline Url UrlView::ToUrl() const { return Url(std::string(text_), *this); }

}  // namespace panoptes::net
