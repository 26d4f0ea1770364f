// Tests of the run ledger: the content-hashed run id depends on exactly
// the canonical params (the construction svc::Request::id() uses) and
// nothing else, records serialize with a fixed schema, and the JSONL
// append/read round trip keeps every record under concurrent appends and
// loses at most a torn line to a crash.

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/canonical.hpp"
#include "obs/ledger.hpp"

namespace xlp::obs {
namespace {

Json sample_params() {
  return Json::object().set("n", 8).set("c", 4).set("moves", 1000L);
}

LedgerEntry entry_with(Json params) {
  LedgerEntry entry;
  entry.subcommand = "solve";
  entry.params = std::move(params);
  entry.seed = 7;
  entry.git_sha = "abc";
  return entry;
}

TEST(LedgerRunId, IsSixteenLowercaseHexChars) {
  const std::string id = entry_with(sample_params()).run_id();
  ASSERT_EQ(id.size(), 16u);
  for (const char c : id)
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c)) ||
                (c >= 'a' && c <= 'f'))
        << id;
}

TEST(LedgerRunId, IsTheCanonicalParamsHash) {
  const LedgerEntry base = entry_with(sample_params());
  EXPECT_EQ(base.run_id(), fnv1a64_hex(canonical_json(sample_params())));
  EXPECT_NE(base.run_id(), entry_with(sample_params().set("n", 16)).run_id());
  // Record fields outside params are not identity: the git sha is
  // provenance, and subcommand / seed count only through params.
  LedgerEntry other = base;
  other.git_sha = "def";
  other.subcommand = "sweep";
  other.seed = 8;
  EXPECT_EQ(base.run_id(), other.run_id());
}

TEST(LedgerRunId, IgnoresExecutionDetails) {
  // Wall time, exit status and artifacts are execution details, not
  // scenario identity: two entries differing only there share a run id.
  LedgerEntry fast, slow;
  fast.subcommand = slow.subcommand = "simulate";
  fast.params = slow.params = sample_params();
  fast.seed = slow.seed = 3;
  fast.git_sha = slow.git_sha = "abc";
  slow.wall_seconds = 99.0;
  slow.exit_status = 1;
  slow.artifacts = {"out/trace.jsonl"};
  EXPECT_EQ(fast.run_id(), slow.run_id());
}

TEST(LedgerEntry, SerializesWithFixedSchemaAndOrder) {
  LedgerEntry entry;
  entry.subcommand = "solve";
  entry.params = sample_params();
  entry.seed = 7;
  entry.git_sha = "abc";
  entry.hostname = "host";
  entry.wall_seconds = 1.5;
  entry.exit_status = 0;
  entry.artifacts = {"a.json", "b.jsonl"};

  const std::string dump = entry.to_json().dump();
  EXPECT_EQ(dump.rfind("{\"schema\":\"xlp-ledger/1\",\"run_id\":\"", 0), 0u)
      << dump;
  // Fixed member order: identical runs serialize byte-identically.
  const char* keys[] = {"run_id",  "subcommand",   "params",
                        "seed",    "git_sha",      "hostname",
                        "wall_seconds", "exit_status", "artifacts"};
  std::size_t last = 0;
  for (const char* key : keys) {
    const std::size_t pos = dump.find("\"" + std::string(key) + "\":");
    ASSERT_NE(pos, std::string::npos) << key;
    EXPECT_GT(pos, last) << key;
    last = pos;
  }
}

TEST(LedgerEntry, LifecycleIsAnOptionalTrailingMember) {
  LedgerEntry cli = entry_with(sample_params());
  cli.cache_hit = 0;
  const std::string cli_dump = cli.to_json().dump();
  EXPECT_EQ(cli_dump.find("lifecycle"), std::string::npos) << cli_dump;

  // An xlpd record is the same record plus the lifecycle member, last,
  // and the lifecycle is execution detail: the run id does not move.
  LedgerEntry served = cli;
  served.lifecycle = LedgerEntry::Lifecycle{"batch", true, 1.5, 20, 0, 35};
  const std::string dump = served.to_json().dump();
  EXPECT_EQ(dump.rfind(cli_dump.substr(0, cli_dump.size() - 1), 0), 0u)
      << dump;
  EXPECT_EQ(served.run_id(), cli.run_id());
  const auto parsed = Json::parse(dump);
  ASSERT_TRUE(parsed.has_value());
  const Json* lifecycle = parsed->find("lifecycle");
  ASSERT_NE(lifecycle, nullptr);
  EXPECT_EQ(lifecycle->find("outcome")->as_string(), "batch");
  EXPECT_TRUE(lifecycle->find("cache_corrupt")->as_bool());
  EXPECT_DOUBLE_EQ(lifecycle->find("received_s")->as_number(), 1.5);
  EXPECT_EQ(lifecycle->find("queue_wait_ns")->as_long(), 20);
  EXPECT_EQ(lifecycle->find("execute_ns")->as_long(), 0);
  EXPECT_EQ(lifecycle->find("end_to_end_ns")->as_long(), 35);
}

TEST(Ledger, AppendReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/xlp_ledger_rt.jsonl";
  std::remove(path.c_str());

  LedgerEntry first;
  first.subcommand = "solve";
  first.params = sample_params();
  first.seed = 1;
  ASSERT_TRUE(append_ledger_entry(path, first));
  LedgerEntry second = first;
  second.seed = 2;
  second.artifacts = {"stats.json"};
  ASSERT_TRUE(append_ledger_entry(path, second));

  const auto records = read_ledger(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].find("seed")->as_long(), 1);
  EXPECT_EQ(records[1].find("seed")->as_long(), 2);
  EXPECT_EQ(records[0].find("run_id")->as_string(), first.run_id());
  EXPECT_EQ(records[1].find("artifacts")->at(0).as_string(), "stats.json");
}

TEST(Ledger, ReadSkipsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/xlp_ledger_bad.jsonl";
  std::remove(path.c_str());
  LedgerEntry entry;
  entry.subcommand = "bench";
  ASSERT_TRUE(append_ledger_entry(path, entry));
  {
    std::ofstream out(path, std::ios::app);
    out << "this is not json\n{\"truncated\":\n";
  }
  ASSERT_TRUE(append_ledger_entry(path, entry));
  EXPECT_EQ(read_ledger(path).size(), 2u);
}

TEST(Ledger, ConcurrentAppendsKeepEveryRecord) {
  const std::string path = ::testing::TempDir() + "/xlp_ledger_mt.jsonl";
  std::remove(path.c_str());
  constexpr int kThreads = 8;
  constexpr int kAppends = 200;
  // No lock around the appends: the ledger itself must not lose a record
  // when writers race (xlpd pool workers, or two processes on one dir).
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&path, t] {
      LedgerEntry entry;
      entry.subcommand = "svc";
      for (int i = 0; i < kAppends; ++i) {
        entry.seed = static_cast<std::uint64_t>(t * kAppends + i);
        EXPECT_TRUE(append_ledger_entry(path, entry));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  std::set<long> seeds;
  for (const Json& record : read_ledger(path))
    seeds.insert(record.find("seed")->as_long());
  EXPECT_EQ(seeds.size(), static_cast<std::size_t>(kThreads * kAppends));
}

TEST(Ledger, AppendAfterATornLineStartsAFreshLine) {
  const std::string path = ::testing::TempDir() + "/xlp_ledger_torn.jsonl";
  std::remove(path.c_str());
  LedgerEntry entry;
  entry.subcommand = "solve";
  ASSERT_TRUE(append_ledger_entry(path, entry));
  {
    // What a crash mid-append leaves: a record cut before its newline.
    std::ofstream out(path, std::ios::app);
    out << "{\"schema\":\"xlp-ledger/1\",\"run";
  }
  entry.seed = 9;
  ASSERT_TRUE(append_ledger_entry(path, entry));
  const auto records = read_ledger(path);
  ASSERT_EQ(records.size(), 2u) << "only the torn record may be lost";
  EXPECT_EQ(records[1].find("seed")->as_long(), 9);
}

TEST(Ledger, ReadMissingFileIsEmpty) {
  EXPECT_TRUE(read_ledger("/nonexistent/dir/ledger.jsonl").empty());
}

}  // namespace
}  // namespace xlp::obs
