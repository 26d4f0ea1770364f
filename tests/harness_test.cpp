// Bench harness: deterministic BENCH_*.json emission (byte-identical
// across runs with the same seed and pinned provenance), filtering,
// schema/provenance stamping, and the BENCH json writer.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "harness.hpp"

using namespace xlp;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

obs::Provenance pinned_provenance() {
  obs::Provenance p;
  p.git_sha = "0000000000000000000000000000000000000000";
  p.compiler = "testcc 1.0";
  p.flags = "-O2";
  p.hostname = "testhost";
  p.seed = 42;
  return p;
}

void register_test_suite() {
  bench::Registry::global().clear();
  bench::register_bench("tsuite", "alpha", "smoke", [](bench::BenchRun& run) {
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
    run.set_items(1000);
    run.set_rate("widgets", 1000.0);
    run.set_counter("checksum", 499500.0);
  });
  bench::register_bench("tsuite", "beta", "", [](bench::BenchRun& run) {
    run.set_payload(obs::Json::object().set("series",
                                            obs::Json::array().push(1).push(2)));
  });
  bench::register_bench("other", "gamma", "", [](bench::BenchRun&) {});
}

bench::RunnerOptions deterministic_options(const std::string& out_dir) {
  bench::RunnerOptions options;
  options.warmup = 0;
  options.repeats = 2;
  options.out_dir = out_dir;
  options.deterministic = true;
  options.provenance = pinned_provenance();
  return options;
}

TEST(HarnessTest, DeterministicRunsAreByteIdentical) {
  register_test_suite();
  const std::string dir_a = ::testing::TempDir() + "xlp_bench_a";
  const std::string dir_b = ::testing::TempDir() + "xlp_bench_b";
  {
    const bench::Runner runner(deterministic_options(dir_a));
    (void)runner.run();
  }
  {
    const bench::Runner runner(deterministic_options(dir_b));
    (void)runner.run();
  }
  const std::string a = slurp(dir_a + "/BENCH_tsuite.json");
  const std::string b = slurp(dir_b + "/BENCH_tsuite.json");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "deterministic BENCH json must not depend on timing";
}

TEST(HarnessTest, DeterministicModeZeroesTimeDerivedFieldsOnly) {
  register_test_suite();
  bench::RunnerOptions options = deterministic_options("");
  const bench::Runner runner(options);
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 2u);  // tsuite + other
  const obs::Json doc = runner.suite_to_json(reports[0]);
  const std::string dump = doc.dump();

  // Schema + provenance are stamped.
  EXPECT_EQ(doc.find("schema")->as_string(), "xlp-bench/1");
  EXPECT_EQ(doc.find("provenance")->find("hostname")->as_string(),
            "testhost");
  EXPECT_EQ(doc.find("provenance")->find("seed")->as_long(), 42);

  const obs::Json* benches = doc.find("benchmarks");
  ASSERT_NE(benches, nullptr);
  const obs::Json& alpha = benches->at(0);
  // Time-derived fields are zeroed; deterministic facts survive.
  EXPECT_EQ(alpha.find("min_ns")->as_number(), 0.0);
  EXPECT_EQ(alpha.find("median_ns")->as_number(), 0.0);
  EXPECT_EQ(alpha.find("metrics")->find("widgets_per_sec")->as_number(), 0.0);
  EXPECT_EQ(alpha.find("metrics")->find("checksum")->as_number(), 499500.0);
  EXPECT_EQ(alpha.find("items")->as_long(), 1000);
  // The payload bench keeps its structured series.
  const obs::Json& beta = benches->at(1);
  ASSERT_NE(beta.find("payload"), nullptr);
  EXPECT_EQ(beta.find("payload")->find("series")->size(), 2u);
}

TEST(HarnessTest, TimedRunRecordsPositiveDurations) {
  register_test_suite();
  bench::RunnerOptions options;
  options.warmup = 0;
  options.repeats = 3;
  options.out_dir.clear();
  options.filter = "^tsuite/alpha";
  const bench::Runner runner(options);
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].results.size(), 1u);
  const auto& r = reports[0].results[0];
  EXPECT_EQ(r.repeats, 3);
  EXPECT_GT(r.min_ns, 0.0);
  EXPECT_LE(r.min_ns, r.median_ns);
  EXPECT_GT(r.total_seconds, 0.0);
  ASSERT_EQ(r.rates.size(), 1u);
  EXPECT_EQ(r.rates[0].first, "widgets_per_sec");
  EXPECT_GT(r.rates[0].second, 0.0);
}

// `xlp diff` recognizes a timing by its _ns suffix (lower is better,
// skipped in exact comparisons), so a timing without one is refused.
TEST(HarnessTest, TimingNamesMustEndInNs) {
  bench::BenchRun run;
  EXPECT_NO_THROW(run.set_time_ns("stage_p99_ns", 1.0));
  EXPECT_THROW(run.set_time_ns("full_move", 1.0), PreconditionError);
}

TEST(HarnessTest, FilterMatchesSuiteNameAndTags) {
  register_test_suite();
  bench::RunnerOptions options;
  options.warmup = 0;
  options.repeats = 1;
  options.out_dir.clear();
  options.filter = "smoke";
  const auto smoke = bench::Runner(options).run();
  ASSERT_EQ(smoke.size(), 1u);
  ASSERT_EQ(smoke[0].results.size(), 1u);
  EXPECT_EQ(smoke[0].results[0].name, "alpha");

  options.filter = "^other/";
  const auto other = bench::Runner(options).run();
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0].suite, "other");
}

TEST(HarnessTest, WriteBenchJsonCreatesMissingDirectories) {
  const std::string dir =
      ::testing::TempDir() + "xlp_bench_deep/nested/dirs";
  const std::string path = bench::write_bench_json(
      dir, "made", obs::Json::object().set("schema", bench::kBenchSchema));
  ASSERT_FALSE(path.empty());
  EXPECT_FALSE(slurp(path).empty());
}

}  // namespace
