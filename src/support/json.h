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
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace opindyn {
namespace json {

/// A heap-held T with value semantics (copies are deep), so a Value's
/// variant stays one pointer wide for its string and container kinds.
/// A moved-from box reads as an empty T.
template <typename T>
class Boxed {
 public:
  Boxed() = default;
  explicit Boxed(T value) : ptr_(std::make_unique<T>(std::move(value))) {}
  Boxed(const Boxed& other)
      : ptr_(other.ptr_ != nullptr ? std::make_unique<T>(*other.ptr_)
                                   : nullptr) {}
  Boxed(Boxed&&) noexcept = default;
  Boxed& operator=(const Boxed& other) {
    Boxed copy(other);
    ptr_ = std::move(copy.ptr_);
    return *this;
  }
  Boxed& operator=(Boxed&&) noexcept = default;

  const T& get() const {
    static const T empty;
    return ptr_ != nullptr ? *ptr_ : empty;
  }
  T& get() {
    if (ptr_ == nullptr) {
      ptr_ = std::make_unique<T>();
    }
    return *ptr_;
  }

 private:
  std::unique_ptr<T> ptr_;
};

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
  Value(bool value) : value_(std::in_place_type<bool>, value) {}
  Value(double value) : value_(std::in_place_type<double>, value) {}
  Value(std::int64_t value)
      : value_(std::in_place_type<std::int64_t>, value) {}
  Value(int value) : Value(static_cast<std::int64_t>(value)) {}
  Value(std::uint64_t value)
      : Value(static_cast<std::int64_t>(value)) {}
  Value(std::string value)
      : value_(std::in_place_type<Boxed<std::string>>, std::move(value)) {}
  Value(const char* value)
      : value_(std::in_place_type<Boxed<std::string>>, value) {}
  Value(Array value)
      : value_(std::in_place_type<Boxed<Array>>, std::move(value)) {}
  Value(Object value)
      : value_(std::in_place_type<Boxed<Object>>, std::move(value)) {}

  Kind kind() const noexcept { return static_cast<Kind>(value_.index()); }
  bool is_null() const noexcept { return kind() == Kind::null; }
  bool is_bool() const noexcept { return kind() == Kind::boolean; }
  /// True for both integer and floating content.
  bool is_number() const noexcept {
    return kind() == Kind::integer || kind() == Kind::number;
  }
  bool is_string() const noexcept { return kind() == Kind::string; }
  bool is_array() const noexcept { return kind() == Kind::array; }
  bool is_object() const noexcept { return kind() == Kind::object; }

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
  /// One alternative per Kind, in Kind order, so kind() is the active
  /// index.  With the large kinds boxed a value is 16 bytes on 64-bit
  /// targets, against 104 for one member per kind: sample arrays in run
  /// reports and benchmark records hold tens of thousands of them.
  std::variant<std::monostate, bool, std::int64_t, double,
               Boxed<std::string>, Boxed<Array>, Boxed<Object>>
      value_;
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
