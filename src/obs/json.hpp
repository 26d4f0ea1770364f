#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xlp::obs {

/// Appends `raw` escaped for embedding inside a JSON string literal (the
/// surrounding quotes are not added): quote, backslash and control
/// characters become their \-sequences, everything else passes through.
void append_json_escaped(std::string& out, std::string_view raw);

/// Appends the JSON text of a number: printf's `%lld` when `integral` or
/// when the value is a whole number below 2^53, `null` when it is not
/// finite, and otherwise the shorter of `%.15g` / `%.17g` that reads back
/// exactly. Json::dump and Request::id() both print numbers through it,
/// so equal values print equal bytes.
void append_json_number(std::string& out, double value, bool integral);

/// Minimal ordered JSON value — just enough for telemetry: build a
/// document with set()/push(), serialize it with dump(), and parse one
/// back with parse() (used by `xlp report`, the decoders of outside
/// documents and the round-trip tests). Object members keep insertion
/// order so emitted records are byte-deterministic; duplicate keys are the
/// caller's bug, not checked.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() noexcept : type_(Type::kNull) {}
  Json(bool value) noexcept : type_(Type::kBool), bool_(value) {}
  Json(double value) noexcept : type_(Type::kNumber), number_(value) {}
  Json(long value) noexcept
      : type_(Type::kNumber),
        number_(static_cast<double>(value)),
        integral_(true) {}
  Json(int value) noexcept : Json(static_cast<long>(value)) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}

  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  /// Appends a member to an object (this must be an object). Returns *this
  /// so documents can be built fluently.
  Json& set(std::string key, Json value);
  /// Appends an element to an array (this must be an array).
  Json& push(Json value);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }

  /// Typed accessors; each throws PreconditionError on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The stored number exactly: also throws PreconditionError when it has
  /// a fraction or lies outside long's (as_int: int's) range.
  [[nodiscard]] long as_long() const;
  [[nodiscard]] int as_int() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array / object element count (0 for scalars).
  [[nodiscard]] std::size_t size() const noexcept;
  /// i-th array element; throws when out of range or not an array.
  [[nodiscard]] const Json& at(std::size_t i) const;
  /// Pointer to the first member named `key`, nullptr when absent (or when
  /// this is not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Ordered members of an object (empty for other types).
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const noexcept {
    return members_;
  }

  /// Compact serialization (no whitespace). Numbers round-trip: integral
  /// values print without a fraction, doubles with just enough digits.
  [[nodiscard]] std::string dump() const;

  /// Parses one JSON document; nullopt on any syntax error or trailing
  /// garbage. Accepts the full scalar/array/object grammar emitted by
  /// dump() (no \u surrogate pairs beyond the BMP; \uXXXX is decoded to
  /// UTF-8). Non-finite numbers never appear: dump() writes NaN/Inf as
  /// `null`, so every emitted document re-parses.
  [[nodiscard]] static std::optional<Json> parse(const std::string& text);

  /// Like parse(), but on failure stores the 0-based character offset
  /// where parsing stopped into `*error_offset` (the offending character,
  /// or text.size() for premature end of input). Untouched on success.
  [[nodiscard]] static std::optional<Json> parse(const std::string& text,
                                                 std::size_t* error_offset);

 private:
  void dump_to(std::string& out) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  bool integral_ = false;
  std::string string_;
  std::vector<Json> elements_;                         // kArray
  std::vector<std::pair<std::string, Json>> members_;  // kObject
};

}  // namespace xlp::obs
