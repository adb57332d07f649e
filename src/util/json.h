// Minimal JSON value, writer and parser.
//
// Native browser telemetry in the paper is JSON (see Listing 1, the
// Opera oleads ad request). The vendors build JSON bodies and the PII
// scanner parses them back, so a small self-contained implementation is
// part of the substrate.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace panoptes::util {

// `number` as a T: empty unless it is integral and within T's range.
// Converting an out-of-range double to an integer is undefined, so a
// double from JSON becomes an integer only through here.
template <typename T>
std::optional<T> ExactInteger(double number) {
  static_assert(std::is_integral_v<T>);
  // [min, max + 1) holds exactly the doubles that convert; both bounds
  // are powers of two (or 0), so the doubles hold them exactly. NaN
  // fails both comparisons.
  constexpr double kMin = static_cast<double>(std::numeric_limits<T>::min());
  constexpr double kEnd =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (!(number >= kMin && number < kEnd)) return std::nullopt;
  T integer = static_cast<T>(number);
  if (static_cast<double>(integer) != number) return std::nullopt;
  return integer;
}

// The largest magnitude at which a double (every JSON number) stands for
// exactly one integer, 2^53 − 1. From 2^53 on it stands for several:
// "9007199254740993" parses to the same double as 2^53.
inline constexpr double kMaxExactJsonInteger = 9007199254740991.0;

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps serialization order deterministic.
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(int64_t i) : value_(static_cast<double>(i)) {}
  Json(uint64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  // The value as a T: empty unless it is a number that is integral and
  // within T's range (ExactInteger). A 64-bit T reads at most
  // ±(2^53 − 1): past that the number may have been another integer
  // when written.
  // The one way to read an integer from JSON.
  template <typename T>
  std::optional<T> Integer() const {
    if (!is_number()) return std::nullopt;
    if constexpr (sizeof(T) >= 8) {
      const double number = as_number();
      if (number > kMaxExactJsonInteger || number < -kMaxExactJsonInteger) {
        return std::nullopt;
      }
    }
    return ExactInteger<T>(as_number());
  }

  // A 64-bit integer as a JSON number, which holds it exactly only up to
  // ±(2^53 − 1): past that throws std::invalid_argument naming `field`
  // rather than writing a number that reads back as another integer.
  template <typename T>
  static Json ExactNumber(T value, std::string_view field) {
    static_assert(std::is_integral_v<T> && sizeof(T) == 8);
    // Compared as integers: 2^53 + 1 converts to the double 2^53.
    constexpr T kMax = static_cast<T>(kMaxExactJsonInteger);
    bool exact = value <= kMax;
    if constexpr (std::is_signed_v<T>) exact = exact && value >= -kMax;
    if (!exact) {
      throw std::invalid_argument(std::string(field) +
                                  " is 2^53 or more in magnitude, which a "
                                  "JSON number cannot hold exactly");
    }
    return Json(static_cast<double>(value));
  }

  // Object member lookup; returns nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;

  // Compact serialization (no whitespace).
  std::string Dump() const;

  // Parses a complete JSON document; nullopt on any syntax error or
  // trailing garbage.
  static std::optional<Json> Parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

// Escapes a string for embedding in JSON output (no surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace panoptes::util
