#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "util/args.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace xlp {
namespace {

Args make(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesPositionalAndOptions) {
  const Args args = make({"sweep", "extra", "--n", "8", "--verbose"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"sweep", "extra"}));
  EXPECT_TRUE(args.has("n"));
  EXPECT_EQ(args.get("n"), "8");
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose"), std::nullopt);  // boolean flag
  EXPECT_FALSE(args.has("missing"));
}

TEST(Args, OptionGreedilyConsumesTheNextToken) {
  // Documented semantics: "--flag value" cannot be told apart from a
  // boolean flag followed by a positional, so the token is consumed.
  const Args args = make({"--verbose", "extra"});
  EXPECT_EQ(args.get("verbose"), "extra");
  EXPECT_TRUE(args.positional().empty());
}

TEST(Args, TrailingOptionIsBoolean) {
  const Args args = make({"--vec"});
  EXPECT_TRUE(args.has("vec"));
  EXPECT_EQ(args.get("vec"), std::nullopt);
}

TEST(Args, TypedAccessors) {
  const Args args = make({"--moves", "5000", "--load", "0.25"});
  EXPECT_EQ(args.get_long("moves", 1), 5000);
  EXPECT_EQ(args.get_long("absent", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("load", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 1.5), 1.5);
  EXPECT_EQ(args.get_or("absent", "dflt"), "dflt");
}

TEST(Args, RejectsMalformedNumbers) {
  const Args args = make({"--moves", "12x", "--load", "a.b"});
  EXPECT_THROW(args.get_long("moves", 0), PreconditionError);
  EXPECT_THROW(args.get_double("load", 0.0), PreconditionError);
}

TEST(Args, IntOptionsRejectValuesOutsideIntRange) {
  // 2^32 + 8 used to wrap to 8 through a narrowing cast.
  const Args args = make({"--n", "4294967304", "--c", "-2147483649",
                          "--huge", "99999999999999999999", "--ok",
                          "-2147483648"});
  EXPECT_THROW((void)args.get_int("n", 8), PreconditionError);
  EXPECT_THROW((void)args.get_int("c", 4), PreconditionError);
  EXPECT_EQ(args.get_long("n", 0), 4294967304L);
  // Past long's range strtol reports ERANGE instead of a value.
  EXPECT_THROW((void)args.get_long("huge", 0), PreconditionError);
  EXPECT_THROW((void)args.get_int("huge", 0), PreconditionError);
  EXPECT_EQ(args.get_int("ok", 0), std::numeric_limits<int>::min());
  EXPECT_EQ(args.get_int("absent", 7), 7);
}

TEST(Args, RejectsBareDoubleDash) {
  EXPECT_THROW(make({"--"}), PreconditionError);
}

TEST(Args, TracksUnknownKeys) {
  const Args args = make({"--known", "1", "--typo", "2"});
  (void)args.get_long("known", 0);
  const auto unknown = args.unknown_keys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

// ------------------------------------------------------------ table mode

const std::vector<Args::Flag> kTable = {
    {"n", Args::Type::kInt, "8", "routers per side"},
    {"moves", Args::Type::kLong, "10000", "SA move budget"},
    {"load", Args::Type::kDouble, "0.02", "offered load"},
    {"pattern", Args::Type::kString, "uniform_random", "traffic"},
    {"trace", Args::Type::kString, "", "trace file"},
    {"once", Args::Type::kBool, "", "one snapshot"}};

Args table(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args(static_cast<int>(argv.size()), argv.data(), kTable);
}

/// The ErrorCode `tokens` fail to parse with.
std::optional<ErrorCode> table_error(
    std::initializer_list<const char*> tokens) {
  try {
    (void)table(tokens);
  } catch (const Error& e) {
    return e.code();
  }
  return std::nullopt;
}

TEST(ArgsTable, UndeclaredFlagIsAUsageErrorAtParse) {
  EXPECT_EQ(table_error({"--n", "8", "--mvoes", "50"}), ErrorCode::kUsage);
  EXPECT_EQ(table_error({"--bogus"}), ErrorCode::kUsage);
  EXPECT_EQ(table_error({"--"}), ErrorCode::kUsage);
  EXPECT_EQ(table_error({"--n", "8"}), std::nullopt);
}

TEST(ArgsTable, BooleanLeavesTheNextPositionalInPlace) {
  const Args args = table({"--once", "svc.sock", "--n", "4"});
  EXPECT_TRUE(args.has("once"));
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"svc.sock"}));
  EXPECT_EQ(args.get_int("n"), 4);
}

TEST(ArgsTable, ValueFlagWithoutAValueOrWithABadOneIsAUsageError) {
  EXPECT_EQ(table_error({"--n"}), ErrorCode::kUsage);
  EXPECT_EQ(table_error({"--trace", "--once"}), ErrorCode::kUsage);
  EXPECT_EQ(table_error({"--n", "8x"}), ErrorCode::kUsage);
  EXPECT_EQ(table_error({"--n", "4294967304"}), ErrorCode::kUsage);
  EXPECT_EQ(table_error({"--moves", "1e3"}), ErrorCode::kUsage);
  EXPECT_EQ(table_error({"--load", "a.b"}), ErrorCode::kUsage);
  // A single-dash value is a value, not a flag.
  EXPECT_EQ(table({"--n", "-3"}).get_int("n"), -3);
  EXPECT_EQ(table({"--moves", "4294967304"}).get_long("moves"), 4294967304L);
}

TEST(ArgsTable, AbsentFlagReadsItsTableDefault) {
  const Args args = table({"--load", "0.5"});
  EXPECT_EQ(args.get_int("n"), 8);
  EXPECT_EQ(args.get_long("moves"), 10000);
  EXPECT_DOUBLE_EQ(args.get_double("load"), 0.5);
  EXPECT_EQ(args.get_string("pattern"), "uniform_random");
  EXPECT_EQ(args.get_string("trace"), "");
  EXPECT_FALSE(args.has("n"));  // a default is not a given flag
  EXPECT_FALSE(args.has("once"));
  // Reading a flag the table does not declare is the caller's bug.
  EXPECT_THROW((void)args.get_string("bogus"), PreconditionError);
  EXPECT_THROW((void)args.get_long("trace"), PreconditionError);
}

TEST(ArgsTable, HelpListsEveryFlagWithItsDefault) {
  const Args args = table({"--help"});
  EXPECT_TRUE(args.help_requested());
  EXPECT_FALSE(table({}).help_requested());
  const std::string help = args.help();
  for (const Args::Flag& flag : kTable) {
    EXPECT_NE(help.find("--" + flag.name), std::string::npos) << help;
    if (!flag.fallback.empty())
      EXPECT_NE(help.find("(default " + flag.fallback + ")"),
                std::string::npos)
          << help;
  }
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(Args, NegativeNumbersAreValuesNotFlags) {
  // A value starting with '-' (single dash) is consumed as a value.
  const Args args = make({"--offset", "-3"});
  EXPECT_EQ(args.get_long("offset", 0), -3);
}

}  // namespace
}  // namespace xlp
