#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace xlp {

/// Minimal command-line parser for the tools: positional arguments plus
/// `--key value` options and `--flag` booleans. No external dependencies,
/// deterministic error messages.
class Args {
 public:
  /// Parses argv[1..]. A token starting with "--" is an option; it consumes
  /// the next token as its value unless that token also starts with "--"
  /// or is absent (then it is a boolean flag). Everything else is
  /// positional.
  Args(int argc, const char* const* argv);

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& key) const;

  /// Value of `--key`; nullopt when absent or boolean.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;
  [[nodiscard]] long get_long(const std::string& key, long fallback) const;
  /// get_long() narrowed to int: a value outside int's range is rejected
  /// like a malformed one, never wrapped.
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;

  /// Keys that were provided but never queried — call after parsing all
  /// known options to reject typos.
  [[nodiscard]] std::vector<std::string> unknown_keys() const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;  // "" marks boolean flags
  mutable std::map<std::string, bool> queried_;
};

}  // namespace xlp
