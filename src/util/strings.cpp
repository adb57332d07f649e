#include "util/strings.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace panoptes::util {

namespace {

char AsciiLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

char AsciiUpper(char c) {
  return (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
}

bool IsUnreserved(unsigned char c) {
  return std::isalnum(c) != 0 || c == '-' || c == '.' || c == '_' || c == '~';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(AsciiLower(c));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) out.push_back(AsciiUpper(c));
  return out;
}

std::string_view LowerIfNeeded(std::string_view s, std::string& storage) {
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') {
      storage = ToLower(s);
      return storage;
    }
  }
  return s;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiLower(a[i]) != AsciiLower(b[i])) return false;
  }
  return true;
}

bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         EqualsIgnoreCase(s.substr(0, prefix.size()), prefix);
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitNonEmpty(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (auto& piece : Split(s, sep)) {
    if (!piece.empty()) out.push_back(std::move(piece));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (EqualsIgnoreCase(haystack.substr(i, needle.size()), needle)) {
      return true;
    }
  }
  return false;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  std::string out;
  if (from.empty()) return std::string(s);
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      return out;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
}

std::optional<uint64_t> ParseUint(std::string_view s) {
  if (s.empty()) return std::nullopt;
  uint64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value, 10);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::string FormatDouble(double value, int decimals) {
  // std::to_chars, not snprintf: %f obeys LC_NUMERIC and would emit a
  // locale decimal comma, breaking the byte-determinism of every CSV
  // report (and with it, snapshot fingerprint validation).
  std::array<char, 64> buf{};
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), value,
                                 std::chars_format::fixed, decimals);
  if (ec != std::errc()) return {};
  return std::string(buf.data(), static_cast<size_t>(ptr - buf.data()));
}

std::string_view TruncateUtf8(std::string_view s, size_t max_bytes) {
  if (s.size() <= max_bytes) return s;
  // If the first excluded byte is a continuation byte (10xxxxxx), the
  // cut would split the sequence it belongs to; back up to that
  // sequence's lead byte and cut before it. UTF-8 sequences are at most
  // 4 bytes, so more than 3 continuation bytes means invalid input —
  // then the byte cut is as good as any.
  size_t cut = max_bytes;
  size_t back = 0;
  while (cut > 0 && back < 3 &&
         (static_cast<unsigned char>(s[cut]) & 0xC0) == 0x80) {
    --cut;
    ++back;
  }
  if ((static_cast<unsigned char>(s[cut]) & 0xC0) == 0x80) cut = max_bytes;
  return s.substr(0, cut);
}

std::string PercentEncode(std::string_view s) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (IsUnreserved(c)) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xF]);
    }
  }
  return out;
}

std::string PercentDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      int hi = HexValue(s[i + 1]);
      int lo = HexValue(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i]);
  }
  return out;
}

}  // namespace panoptes::util
