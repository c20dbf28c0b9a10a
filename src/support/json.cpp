#include "src/support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace opindyn {
namespace json {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::null: return "null";
    case Kind::boolean: return "boolean";
    case Kind::integer: return "integer";
    case Kind::number: return "number";
    case Kind::string: return "string";
    case Kind::array: return "array";
    case Kind::object: return "object";
  }
  return "?";
}

[[noreturn]] void fail_kind(const char* wanted, Kind got) {
  fail(std::string("json: expected ") + wanted + ", found " +
       kind_name(got));
}

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", u);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Shortest "%.Ng" rendering that parses back to the same double, so
/// dumps stay human-readable (0.1, not 0.10000000000000001) without
/// losing round-trip exactness.
std::string dump_double(double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan literal; null is the conventional stand-in.
    return "null";
  }
  char buffer[40];
  for (const int precision : {6, 15, 16, 17}) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, v);
    if (std::strtod(buffer, nullptr) == v) {
      break;
    }
  }
  return buffer;
}

void dump_value(const Value& value, int indent, int depth,
                std::string& out);

void dump_children(const Value& value, int indent, int depth,
                   std::string& out) {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (pretty) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent) *
                     static_cast<std::size_t>(d),
                 ' ');
    }
  };
  if (value.is_array()) {
    const Array& array = value.as_array();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i > 0) {
        out += pretty ? "," : ", ";
      }
      newline_pad(depth + 1);
      dump_value(array[i], indent, depth + 1, out);
    }
    newline_pad(depth);
    out += ']';
    return;
  }
  const Object& object = value.as_object();
  if (object.empty()) {
    out += "{}";
    return;
  }
  out += '{';
  for (std::size_t i = 0; i < object.size(); ++i) {
    if (i > 0) {
      out += pretty ? "," : ", ";
    }
    newline_pad(depth + 1);
    dump_string(object[i].first, out);
    out += ": ";
    dump_value(object[i].second, indent, depth + 1, out);
  }
  newline_pad(depth);
  out += '}';
}

void dump_value(const Value& value, int indent, int depth,
                std::string& out) {
  switch (value.kind()) {
    case Kind::null: out += "null"; return;
    case Kind::boolean: out += value.as_bool() ? "true" : "false"; return;
    case Kind::integer: out += std::to_string(value.as_int()); return;
    case Kind::number: out += dump_double(value.as_double()); return;
    case Kind::string: dump_string(value.as_string(), out); return;
    case Kind::array:
    case Kind::object: dump_children(value, indent, depth, out); return;
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail_here("trailing content after the JSON document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail_here(const std::string& what) {
    fail("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) {
      fail_here("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail_here(std::string("expected '") + c + "', found '" +
                text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t length = std::string(literal).size();
    if (text_.compare(pos_, length, literal) == 0) {
      pos_ += length;
      return true;
    }
    return false;
  }

  Value parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      // Each container level recurses once more: cap the depth so
      // untrusted input cannot exhaust the native stack.
      if (depth_ == kMaxDepth) {
        fail_here("nesting deeper than " + std::to_string(kMaxDepth) +
                  " levels");
      }
      ++depth_;
      Value value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    switch (c) {
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail_here("invalid token");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail_here("invalid token");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail_here("invalid token");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object object;
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(object));
    }
    while (true) {
      if (peek() != '"') {
        fail_here("expected a string object key");
      }
      std::string key = parse_string();
      expect(':');
      object.emplace_back(std::move(key), parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(object));
    }
  }

  Value parse_array() {
    expect('[');
    Array array;
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(array));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail_here("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail_here("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail_here("unterminated escape");
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail_here("truncated \\u escape");
          }
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned int>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned int>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned int>(h - 'A' + 10);
            } else {
              fail_here("invalid \\u escape digit");
            }
          }
          // Basic-plane code points only (no surrogate pairing): the
          // observability outputs never emit astral characters.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail_here("invalid escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                 c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") {
      pos_ = start;
      fail_here("invalid token");
    }
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Value(static_cast<std::int64_t>(v));
      }
      // Out-of-range integer literal: fall through to double.
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail_here("malformed number '" + token + "'");
    }
    return Value(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers currently open
};

}  // namespace

bool Value::as_bool() const {
  if (kind() != Kind::boolean) fail_kind("boolean", kind());
  return std::get<bool>(value_);
}

double Value::as_double() const {
  if (kind() == Kind::integer) {
    return static_cast<double>(std::get<std::int64_t>(value_));
  }
  if (kind() != Kind::number) fail_kind("number", kind());
  return std::get<double>(value_);
}

std::int64_t Value::as_int() const {
  if (kind() == Kind::integer) return std::get<std::int64_t>(value_);
  if (kind() == Kind::number) {
    const double number = std::get<double>(value_);
    if (number == std::floor(number) && std::isfinite(number)) {
      return static_cast<std::int64_t>(number);
    }
  }
  fail_kind("integer", kind());
}

const std::string& Value::as_string() const {
  if (kind() != Kind::string) fail_kind("string", kind());
  return std::get<Boxed<std::string>>(value_).get();
}

const Array& Value::as_array() const {
  if (kind() != Kind::array) fail_kind("array", kind());
  return std::get<Boxed<Array>>(value_).get();
}

const Object& Value::as_object() const {
  if (kind() != Kind::object) fail_kind("object", kind());
  return std::get<Boxed<Object>>(value_).get();
}

Array& Value::as_array() {
  if (kind() != Kind::array) fail_kind("array", kind());
  return std::get<Boxed<Array>>(value_).get();
}

Object& Value::as_object() {
  if (kind() != Kind::object) fail_kind("object", kind());
  return std::get<Boxed<Object>>(value_).get();
}

const Value* Value::find(const std::string& key) const {
  if (kind() != Kind::object) {
    return nullptr;
  }
  for (const auto& [k, v] : as_object()) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

void Value::set(std::string key, Value value) {
  if (kind() == Kind::null) {
    value_.emplace<Boxed<Object>>();
  }
  Object& object = as_object();
  for (auto& [k, v] : object) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object.emplace_back(std::move(key), std::move(value));
}

void Value::push_back(Value value) {
  if (kind() == Kind::null) {
    value_.emplace<Boxed<Array>>();
  }
  as_array().push_back(std::move(value));
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_value(*this, indent, 0, out);
  return out;
}

Value parse(const std::string& text) {
  return Parser(text).parse_document();
}

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail("cannot open JSON file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse(buffer.str());
  } catch (const std::runtime_error& error) {
    fail(path + ": " + error.what());
  }
}

}  // namespace json
}  // namespace opindyn
