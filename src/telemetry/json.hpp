// Minimal streaming JSON writer - the one emission path for every
// metrics/bench JSON artifact (BENCH_gemm.json, the metrics export,
// the Chrome trace), replacing per-bench string concatenation - plus
// its read-side counterpart, a small recursive-descent parser
// (JsonValue::parse) that reads exported artifacts back: the telemetry,
// trace and SLO tests parse the metrics export, request traces and
// the SLO report with it. The writer produces pretty-printed,
// key-ordered output; it tracks nesting and comma placement so
// callers only name structure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace m3xu::telemetry {

std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Keys apply inside an object, before the value/container call.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v, int digits = 6);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(long v);
  JsonWriter& value(int v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Splices pre-rendered JSON as the next value (caller guarantees
  /// validity).
  JsonWriter& raw(std::string_view json);

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// The document; call after the outermost container closed.
  const std::string& str() const { return out_; }

 private:
  void pre_value();
  void indent();

  std::string out_;
  // One frame per open container: first tracks comma insertion,
  // is_object whether a key is expected.
  struct Frame {
    bool is_object;
    bool first;
  };
  std::vector<Frame> stack_;
  bool key_pending_ = false;
};

/// Parsed JSON document node. The accessors are total: a type-mismatch
/// read returns the caller's fallback instead of throwing, so a reader
/// checking an exported document (the metrics export, a request trace)
/// can probe fields that may be absent and fail with a clear message.
/// Object key order is preserved; duplicate keys keep the last value
/// on lookup.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Strict parse of a complete document (one value plus whitespace).
  /// Returns nullopt on any syntax error or trailing garbage. Depth is
  /// bounded to keep adversarial nesting from overflowing the stack.
  static std::optional<JsonValue> parse(std::string_view text);

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool(bool fallback = false) const;
  double as_double(double fallback = 0.0) const;
  /// Integer tokens (no fraction/exponent) are held exactly in 64
  /// bits, so values past 2^53 round-trip bit-exactly through the
  /// writer's uint64/long emitters; only fractional or out-of-64-bit
  /// numbers go through double. Truncates toward zero; fallback on
  /// type mismatch or out-of-range.
  std::int64_t as_int(std::int64_t fallback = 0) const;
  std::uint64_t as_uint(std::uint64_t fallback = 0) const;
  const std::string& as_string() const;  // empty string on mismatch

  /// Array element count / object member count; 0 for scalars.
  std::size_t size() const;
  /// Array element by index; a null sentinel when out of range or not
  /// an array.
  const JsonValue& at(std::size_t i) const;
  /// Object member by key; nullptr on a miss or a non-object.
  const JsonValue* find(std::string_view key) const;
  /// Object members in document order (empty for non-objects).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

 private:
  friend struct JsonParser;

  // Integer-token numbers additionally keep an exact 64-bit value
  // (num_kind_ says which well is authoritative); num_ always holds
  // the nearest double for as_double.
  enum class NumKind { kDouble, kInt, kUint };

  Type type_ = Type::kNull;
  bool bool_ = false;
  NumKind num_kind_ = NumKind::kDouble;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  std::string str_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace m3xu::telemetry
