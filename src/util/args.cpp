#include "util/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "util/check.hpp"
#include "util/error.hpp"

namespace xlp {

namespace {

bool is_option(const std::string& token) { return token.rfind("--", 0) == 0; }

std::optional<long> parse_long(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE) return std::nullopt;
  return parsed;
}

std::optional<int> parse_int(const std::string& text) {
  const auto parsed = parse_long(text);
  if (!parsed || *parsed < std::numeric_limits<int>::min() ||
      *parsed > std::numeric_limits<int>::max())
    return std::nullopt;
  return static_cast<int>(*parsed);
}

std::optional<double> parse_double(const std::string& text) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') return std::nullopt;
  return parsed;
}

/// Whether `text` is a value of `type`; the error phrase when it is not.
const char* type_error(Args::Type type, const std::string& text) {
  switch (type) {
    case Args::Type::kInt:
      return parse_int(text) ? nullptr : "needs an integer";
    case Args::Type::kLong:
      return parse_long(text) ? nullptr : "needs an integer";
    case Args::Type::kDouble:
      return parse_double(text) ? nullptr : "needs a number";
    case Args::Type::kBool:
    case Args::Type::kString: break;
  }
  return nullptr;
}

const char* type_name(Args::Type type) {
  switch (type) {
    case Args::Type::kBool: return "";
    case Args::Type::kInt: return " <int>";
    case Args::Type::kLong: return " <long>";
    case Args::Type::kDouble: return " <double>";
    case Args::Type::kString: return " <string>";
  }
  return "";
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (is_option(token)) {
      const std::string key = token.substr(2);
      XLP_REQUIRE(!key.empty(), "bare '--' is not a valid option");
      if (i + 1 < argc && !is_option(argv[i + 1])) {
        options_[key] = argv[++i];
      } else {
        options_[key] = "";
      }
    } else {
      positional_.push_back(token);
    }
  }
}

Args::Args(int argc, const char* const* argv, std::vector<Flag> flags)
    : flags_(std::move(flags)), table_(true) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (!is_option(token)) {
      positional_.push_back(token);
      continue;
    }
    const std::string key = token.substr(2);
    if (key == "help") {
      help_ = true;
      continue;
    }
    const Flag* flag = find(key);
    if (flag == nullptr)
      throw Error(ErrorCode::kUsage, "unknown option " + token);
    if (flag->type == Type::kBool) {
      options_[key] = "";
      continue;
    }
    if (i + 1 == argc || is_option(argv[i + 1]))
      throw Error(ErrorCode::kUsage, "option " + token + " needs a value");
    const std::string value = argv[++i];
    if (const char* error = type_error(flag->type, value))
      throw Error(ErrorCode::kUsage,
                  "option " + token + " " + error + ", not '" + value + "'");
    options_[key] = value;
  }
}

const Args::Flag* Args::find(const std::string& key) const {
  for (const Flag& flag : flags_)
    if (flag.name == key) return &flag;
  return nullptr;
}

bool Args::declares(const std::string& key) const {
  return !table_ || find(key) != nullptr;
}

bool Args::has(const std::string& key) const {
  XLP_REQUIRE(declares(key), "option --" + key + " is undeclared");
  queried_[key] = true;
  return options_.count(key) > 0;
}

std::optional<std::string> Args::get(const std::string& key) const {
  const bool given = has(key);
  if (const auto it = options_.find(key); given && !it->second.empty())
    return it->second;
  if (const Flag* flag = table_ ? find(key) : nullptr;
      flag != nullptr && !flag->fallback.empty())
    return flag->fallback;
  return std::nullopt;
}

std::string Args::get_or(const std::string& key,
                         const std::string& fallback) const {
  return get(key).value_or(fallback);
}

long Args::get_long(const std::string& key, long fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  const auto parsed = parse_long(*value);
  XLP_REQUIRE(parsed.has_value(), "option --" + key + " needs an integer");
  return *parsed;
}

int Args::get_int(const std::string& key, int fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  const auto parsed = parse_int(*value);
  XLP_REQUIRE(parsed.has_value(), "option --" + key + " needs an integer");
  return *parsed;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  const auto parsed = parse_double(*value);
  XLP_REQUIRE(parsed.has_value(), "option --" + key + " needs a number");
  return *parsed;
}

std::string Args::get_string(const std::string& key) const {
  return get_or(key, "");
}

long Args::get_long(const std::string& key) const {
  XLP_REQUIRE(get(key).has_value(), "option --" + key + " has no default");
  return get_long(key, 0);
}

int Args::get_int(const std::string& key) const {
  XLP_REQUIRE(get(key).has_value(), "option --" + key + " has no default");
  return get_int(key, 0);
}

double Args::get_double(const std::string& key) const {
  XLP_REQUIRE(get(key).has_value(), "option --" + key + " has no default");
  return get_double(key, 0.0);
}

std::string Args::help() const {
  std::string out;
  const auto line = [&out](std::string name, const std::string& help) {
    name.resize(std::max<std::size_t>(name.size() + 2, 30), ' ');
    out += name + help + "\n";
  };
  for (const Flag& flag : flags_) {
    const std::string fallback =
        flag.fallback.empty() ? "" : " (default " + flag.fallback + ")";
    line("  --" + flag.name + type_name(flag.type), flag.help + fallback);
  }
  line("  --help", "print this help and exit");
  return out;
}

std::vector<std::string> Args::unknown_keys() const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : options_)
    if (!queried_.count(key)) unknown.push_back(key);
  return unknown;
}

}  // namespace xlp
