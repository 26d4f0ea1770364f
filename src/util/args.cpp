#include "util/args.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "util/check.hpp"

namespace xlp {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      XLP_REQUIRE(!key.empty(), "bare '--' is not a valid option");
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        options_[key] = argv[++i];
      } else {
        options_[key] = "";
      }
    } else {
      positional_.push_back(token);
    }
  }
}

bool Args::has(const std::string& key) const {
  queried_[key] = true;
  return options_.count(key) > 0;
}

std::optional<std::string> Args::get(const std::string& key) const {
  queried_[key] = true;
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::string Args::get_or(const std::string& key,
                         const std::string& fallback) const {
  return get(key).value_or(fallback);
}

long Args::get_long(const std::string& key, long fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value->c_str(), &end, 10);
  XLP_REQUIRE(end && *end == '\0' && errno != ERANGE,
              "option --" + key + " needs an integer");
  return parsed;
}

int Args::get_int(const std::string& key, int fallback) const {
  const long parsed = get_long(key, fallback);
  XLP_REQUIRE(parsed >= std::numeric_limits<int>::min() &&
                  parsed <= std::numeric_limits<int>::max(),
              "option --" + key + " needs an integer");
  return static_cast<int>(parsed);
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  XLP_REQUIRE(end && *end == '\0', "option --" + key + " needs a number");
  return parsed;
}

std::vector<std::string> Args::unknown_keys() const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : options_)
    if (!queried_.count(key)) unknown.push_back(key);
  return unknown;
}

}  // namespace xlp
