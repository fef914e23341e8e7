// Minimal JSON for the service protocol.
//
// The daemon speaks newline-delimited JSON, which needs a parser, and the
// repo deliberately takes no third-party dependencies. This is a small
// recursive-descent parser for the full JSON grammar (objects, arrays,
// strings with escapes, numbers, booleans, null) with a depth limit,
// plus a writer. Numbers are held as double; protocol doubles round-trip
// through "%.17g" so times and metrics survive a reply bit-identically.
//
// Objects preserve insertion order (vector of pairs) — duplicate keys are
// legal and find() returns the first — which keeps serialization
// deterministic for the golden tests.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace jigsaw::service {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? std::get<bool>(value_) : fallback;
  }
  double as_double(double fallback = 0.0) const {
    return is_number() ? std::get<double>(value_) : fallback;
  }
  std::int64_t as_int(std::int64_t fallback = 0) const {
    return is_number() ? static_cast<std::int64_t>(std::get<double>(value_))
                       : fallback;
  }
  const std::string& as_string() const {
    static const std::string kEmpty;
    return is_string() ? std::get<std::string>(value_) : kEmpty;
  }
  const Array& as_array() const {
    static const Array kEmpty;
    return is_array() ? std::get<Array>(value_) : kEmpty;
  }
  const Object& as_object() const {
    static const Object kEmpty;
    return is_object() ? std::get<Object>(value_) : kEmpty;
  }

  /// First value under `key` in an object; nullptr when absent (or when
  /// this value is not an object).
  const JsonValue* find(const std::string& key) const;

  friend bool operator==(const JsonValue&, const JsonValue&) = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Parse a complete JSON document. Returns false with a position-carrying
/// message in *error on malformed input (trailing garbage included).
bool parse_json(const std::string& text, JsonValue* out, std::string* error);

/// Compact serialization (no whitespace); doubles as %.17g, with
/// integral-valued doubles written without exponent/decimal so ids stay
/// readable. Inverse of parse_json for round-tripping values.
void write_json(std::string& out, const JsonValue& value);
std::string to_json(const JsonValue& value);

/// Append one double formatted %.17g (shared by protocol serializers).
void append_double(std::string& out, double value);

}  // namespace jigsaw::service
