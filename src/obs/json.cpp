#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/check.hpp"

namespace xlp::obs {

void append_json_escaped(std::string& out, std::string_view raw) {
  // Bytes that need no escape are copied a run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(raw, run, raw.size() - run);
}

void append_json_number(std::string& out, double value, bool integral) {
  char buf[32];
  if (integral ||
      (std::rint(value) == value && std::fabs(value) < 9.007199254740992e15 &&
       std::isfinite(value))) {
    // std::to_chars prints what %lld prints, without parsing a format.
    out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                  static_cast<long long>(std::llround(value)))
                        .ptr);
    return;
  }
  if (!std::isfinite(value)) {  // JSON has no inf/nan; emit null
    out += "null";
    return;
  }
  // Shortest representation that round-trips: try 15 significant digits,
  // fall back to 17. (std::to_chars with a precision prints the same
  // bytes, but its tables add 0.12-0.15 MB to a server's resident set.)
  std::snprintf(buf, sizeof(buf), "%.15g", value);
  if (std::strtod(buf, nullptr) != value)
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

Json& Json::set(std::string key, Json value) {
  XLP_REQUIRE(type_ == Type::kObject, "set() needs a JSON object");
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  XLP_REQUIRE(type_ == Type::kArray, "push() needs a JSON array");
  elements_.push_back(std::move(value));
  return *this;
}

bool Json::as_bool() const {
  XLP_REQUIRE(type_ == Type::kBool, "not a JSON boolean");
  return bool_;
}

double Json::as_number() const {
  XLP_REQUIRE(type_ == Type::kNumber, "not a JSON number");
  return number_;
}

long Json::as_long() const {
  XLP_REQUIRE(type_ == Type::kNumber, "not a JSON number");
  // Exact or nothing: a fraction, or a value past long's range (2^63 is
  // exactly representable, so the bounds are exact too), is rejected
  // rather than rounded or wrapped.
  XLP_REQUIRE(std::trunc(number_) == number_ && number_ >= -0x1p63 &&
                  number_ < 0x1p63,
              "not an integer within the range of long");
  return static_cast<long>(number_);
}

int Json::as_int() const {
  const long value = as_long();
  XLP_REQUIRE(value >= std::numeric_limits<int>::min() &&
                  value <= std::numeric_limits<int>::max(),
              "not an integer within the range of int");
  return static_cast<int>(value);
}

const std::string& Json::as_string() const {
  XLP_REQUIRE(type_ == Type::kString, "not a JSON string");
  return string_;
}

std::size_t Json::size() const noexcept {
  if (type_ == Type::kArray) return elements_.size();
  if (type_ == Type::kObject) return members_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  XLP_REQUIRE(type_ == Type::kArray && i < elements_.size(),
              "JSON array index out of range");
  return elements_[i];
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_json_number(out, number_, integral_); break;
    case Type::kString:
      out += '"';
      append_json_escaped(out, string_);
      out += '"';
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& e : elements_) {
        if (!first) out += ',';
        first = false;
        e.dump_to(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        append_json_escaped(out, key);
        out += "\":";
        value.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

/// Recursive-descent parser over a string view; `pos` always points at the
/// next unconsumed character.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<Json> parse_document() {
    skip_ws();
    auto value = parse_value();
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  std::optional<Json> parse_value() {
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case 'n': return consume_literal("null") ? std::optional<Json>(Json())
                                               : std::nullopt;
      case 't': return consume_literal("true") ? std::optional<Json>(Json(true))
                                               : std::nullopt;
      case 'f': return consume_literal("false")
                           ? std::optional<Json>(Json(false))
                           : std::nullopt;
      case '"': return parse_string();
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  std::optional<Json> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Json(std::move(out));
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return std::nullopt;
          }
          // BMP-only UTF-8 encoding (telemetry never needs more).
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
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool digits = false;
    bool fractional = false;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      digits = true;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      fractional = true;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      fractional = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (!digits) return std::nullopt;
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    return fractional ? Json(value) : make_integral(value);
  }

  static Json make_integral(double value) {
    if (std::rint(value) == value && std::fabs(value) < 9.007199254740992e15)
      return Json(static_cast<long>(value));
    return Json(value);
  }

  std::optional<Json> parse_array() {
    if (!consume('[')) return std::nullopt;
    if (++depth_ > kMaxDepth) return std::nullopt;
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return (--depth_, arr);
    while (true) {
      skip_ws();
      auto value = parse_value();
      if (!value) return std::nullopt;
      arr.push(std::move(*value));
      skip_ws();
      if (consume(']')) return (--depth_, arr);
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<Json> parse_object() {
    if (!consume('{')) return std::nullopt;
    if (++depth_ > kMaxDepth) return std::nullopt;
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return (--depth_, obj);
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      skip_ws();
      auto value = parse_value();
      if (!value) return std::nullopt;
      obj.set(key->as_string(), std::move(*value));
      skip_ws();
      if (consume('}')) return (--depth_, obj);
      if (!consume(',')) return std::nullopt;
    }
  }

  /// Nesting cap: one stack frame per level means adversarial inputs like
  /// ten thousand '[' would otherwise overflow the stack instead of
  /// failing cleanly. Telemetry documents are a handful of levels deep.
  static constexpr int kMaxDepth = 128;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::optional<Json> Json::parse(const std::string& text,
                                std::size_t* error_offset) {
  // Failure always unwinds immediately (every production returns nullopt
  // without consuming further input), so the cursor position after a
  // failed parse is the point the grammar stopped matching.
  Parser parser(text);
  auto value = parser.parse_document();
  if (!value && error_offset != nullptr) *error_offset = parser.pos();
  return value;
}

}  // namespace xlp::obs
