#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace xlp {

/// Minimal command-line parser for the tools: positional arguments plus
/// `--key value` options and `--flag` booleans. No external dependencies,
/// deterministic error messages.
///
/// Two modes. The untyped constructor accepts any option and guesses
/// booleans from the token that follows. The table constructor takes the
/// command's declared flags: it rejects an undeclared flag or a value of
/// the wrong type while parsing, never lets a boolean take the next token,
/// and its getters fall back to the table's defaults.
class Args {
 public:
  enum class Type { kBool, kInt, kLong, kDouble, kString };

  /// One declared flag: `--name`, its value type, its default as text
  /// ("" = none; a kBool flag is off unless given) and a one-line help.
  struct Flag {
    std::string name;
    Type type;
    std::string fallback;
    std::string help;
  };

  /// Parses argv[1..]. A token starting with "--" is an option; it consumes
  /// the next token as its value unless that token also starts with "--"
  /// or is absent (then it is a boolean flag). Everything else is
  /// positional.
  Args(int argc, const char* const* argv);

  /// Parses argv[1..] against `flags`. `--help` is always declared (see
  /// help_requested()). Throws xlp::Error(kUsage) on an undeclared flag, a
  /// value flag without a value, or a value that is not of the flag's
  /// type (an int outside int's range included).
  Args(int argc, const char* const* argv, std::vector<Flag> flags);

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Whether `--key` was given. In table mode `key` must be declared.
  [[nodiscard]] bool has(const std::string& key) const;
  /// Table mode: whether the table declares `--key` (true in untyped mode).
  [[nodiscard]] bool declares(const std::string& key) const;

  /// Value of `--key`; else, in table mode, its non-empty default; else
  /// nullopt (also for booleans).
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;
  [[nodiscard]] long get_long(const std::string& key, long fallback) const;
  /// get_long() narrowed to int: a value outside int's range is rejected
  /// like a malformed one, never wrapped.
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;

  /// Table mode: the value of a declared flag, or its table default ("" /
  /// required non-empty for the numeric getters).
  [[nodiscard]] std::string get_string(const std::string& key) const;
  [[nodiscard]] long get_long(const std::string& key) const;
  [[nodiscard]] int get_int(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key) const;

  /// Table mode: `--help` was given.
  [[nodiscard]] bool help_requested() const noexcept { return help_; }
  /// Table mode: one line per declared flag — name, value type, help and
  /// default — and one for --help.
  [[nodiscard]] std::string help() const;

  /// Untyped mode: keys that were provided but never queried — call after
  /// reading every known option to reject typos.
  [[nodiscard]] std::vector<std::string> unknown_keys() const;

 private:
  [[nodiscard]] const Flag* find(const std::string& key) const;

  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;  // "" marks boolean flags
  mutable std::map<std::string, bool> queried_;
  std::vector<Flag> flags_;  // empty in untyped mode
  bool table_ = false;
  bool help_ = false;
};

}  // namespace xlp
