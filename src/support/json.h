// Minimal JSON value model, parser and serialiser -- the shared
// machinery behind the observability outputs (run reports, Chrome trace
// files, BENCH_*.json) and the perf_check regression gate that reads
// them back.  Deliberately small: objects preserve insertion order so
// serialisation is deterministic (two identical builds dump identical
// bytes, which the metrics-determinism tests byte-compare), integers
// are kept exact (counters round-trip without scientific notation), and
// doubles dump with the shortest representation that parses back to the
// same value.
#ifndef OPINDYN_SUPPORT_JSON_H
#define OPINDYN_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace opindyn {
namespace json {

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered key/value list (not a map): dump order == build
/// order, and `find` does a linear scan (objects here are small).
using Object = std::vector<std::pair<std::string, Value>>;

enum class Kind { null, boolean, integer, number, string, array, object };

class Value {
 public:
  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool value) : kind_(Kind::boolean), bool_(value) {}
  Value(double value) : kind_(Kind::number), number_(value) {}
  Value(std::int64_t value) : kind_(Kind::integer), int_(value) {}
  Value(int value) : Value(static_cast<std::int64_t>(value)) {}
  Value(std::uint64_t value)
      : Value(static_cast<std::int64_t>(value)) {}
  Value(std::string value)
      : kind_(Kind::string), string_(std::move(value)) {}
  Value(const char* value) : kind_(Kind::string), string_(value) {}
  Value(Array value) : kind_(Kind::array), array_(std::move(value)) {}
  Value(Object value) : kind_(Kind::object), object_(std::move(value)) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::null; }
  bool is_bool() const noexcept { return kind_ == Kind::boolean; }
  /// True for both integer and floating content.
  bool is_number() const noexcept {
    return kind_ == Kind::integer || kind_ == Kind::number;
  }
  bool is_string() const noexcept { return kind_ == Kind::string; }
  bool is_array() const noexcept { return kind_ == Kind::array; }
  bool is_object() const noexcept { return kind_ == Kind::object; }

  /// Typed accessors; each throws std::runtime_error naming the actual
  /// kind on mismatch (perf_check turns these into one-line errors
  /// citing the malformed benchmark file).
  bool as_bool() const;
  double as_double() const;  // accepts integer and number
  std::int64_t as_int() const;  // accepts exact-integral numbers too
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object member lookup; nullptr when absent or when this is not an
  /// object.
  const Value* find(const std::string& key) const;
  /// Object append-or-replace (makes a null value an empty object
  /// first; throws on other kinds).
  void set(std::string key, Value value);
  /// Array append (makes a null value an empty array first).
  void push_back(Value value);

  /// Serialises this value.  indent < 0 emits the compact one-line
  /// form; indent >= 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

 private:
  Kind kind_ = Kind::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t int_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Deepest container nesting parse() accepts.
inline constexpr int kMaxDepth = 128;

/// Parses one complete JSON document.  Throws std::runtime_error with a
/// byte-offset diagnostic on malformed input (including trailing
/// garbage after the document and nesting deeper than kMaxDepth).
Value parse(const std::string& text);

/// Parses the JSON document in the named file.  Throws with the path in
/// the message when the file cannot be read or does not parse.
Value parse_file(const std::string& path);

}  // namespace json
}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_JSON_H
