// Tests of the `xlp diff` row builder: the direction rule, threshold
// gating of timed documents, and the exact comparison a deterministic
// document asks for (counters, payloads, benchmark and metric sets).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/diff.hpp"

namespace xlp::obs {
namespace {

Json bench(const std::string& name, double ns, Json metrics,
           Json payload = Json()) {
  Json b = Json::object()
               .set("name", name)
               .set("min_ns", ns)
               .set("median_ns", ns)
               .set("mean_ns", ns)
               .set("metrics", std::move(metrics));
  if (!payload.is_null()) b.set("payload", std::move(payload));
  return b;
}

Json suite(bool deterministic, std::vector<Json> benches) {
  Json list = Json::array();
  for (Json& b : benches) list.push(std::move(b));
  return Json::object()
      .set("schema", "xlp-bench/1")
      .set("options", Json::object().set("deterministic", deterministic))
      .set("benchmarks", std::move(list));
}

std::vector<DiffRow> failed(const std::vector<DiffRow>& rows) {
  std::vector<DiffRow> out;
  for (const DiffRow& row : rows)
    if (fails(row.verdict)) out.push_back(row);
  return out;
}

Json sim_metrics(double finished, double per_sec) {
  return Json::object()
      .set("packets_per_sec", per_sec)
      .set("packets_finished", finished)
      .set("avg_latency", 25.5);
}

TEST(DiffDirection, KeyedByMetricName) {
  EXPECT_EQ(metric_direction("median_ns"), Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("hit_p99_ns"), Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("latency.avg"), Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("packets_dropped"), Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("faults.packets_lost"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("moves_per_sec"), Direction::kHigherIsBetter);
  EXPECT_EQ(metric_direction("packets_finished"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(metric_direction("avg_latency"), Direction::kInformational);
  EXPECT_EQ(metric_direction("best_value"), Direction::kInformational);
}

TEST(DiffBench, TimedRegressionBeyondThresholdFails) {
  const Json a = suite(false, {bench("k", 100, sim_metrics(10, 50))});
  const Json b = suite(false, {bench("k", 200, sim_metrics(10, 25))});
  const auto rows = diff_bench_docs(a, b, "BENCH_t", 10.0);
  // min/median/mean_ns doubled and packets_per_sec halved.
  EXPECT_EQ(failed(rows).size(), 4u);
  EXPECT_TRUE(failed(diff_bench_docs(a, b, "BENCH_t", 1000.0)).empty());
  EXPECT_EQ(rows.front().scope, "BENCH_t/k");
}

TEST(DiffBench, TimedCounterChangeIsInformational) {
  const Json a = suite(false, {bench("k", 100, Json::object()
                                                   .set("best_value", 1.0))});
  const Json b = suite(false, {bench("k", 100, Json::object()
                                                   .set("best_value", 2.0))});
  const auto rows = diff_bench_docs(a, b, "BENCH_t", 10.0);
  EXPECT_TRUE(failed(rows).empty());
  bool seen = false;
  for (const DiffRow& row : rows)
    if (row.metric == "best_value") {
      seen = true;
      EXPECT_EQ(row.verdict, Verdict::kChanged);
    }
  EXPECT_TRUE(seen);
}

TEST(DiffBench, DeterministicVsTimedSkipsZeroedTimings) {
  // A --deterministic document zeroes every timing; against a timed one
  // those zeros are not regressions, and equal counters pass.
  const Json timed = suite(false, {bench("k", 100, sim_metrics(10, 50))});
  const Json det = suite(true, {bench("k", 0, sim_metrics(10, 0))});
  for (const auto& rows : {diff_bench_docs(timed, det, "BENCH_t", 10.0),
                           diff_bench_docs(det, timed, "BENCH_t", 10.0)}) {
    EXPECT_TRUE(failed(rows).empty());
    for (const DiffRow& row : rows) {
      EXPECT_NE(row.metric, "min_ns");
      EXPECT_NE(row.metric, "packets_per_sec");
    }
  }
}

TEST(DiffBench, DeterministicCounterChangeFails) {
  const Json a = suite(true, {bench("k", 0, sim_metrics(5, 0))});
  const Json b = suite(true, {bench("k", 0, sim_metrics(7, 0))});
  const auto bad = failed(diff_bench_docs(a, b, "BENCH_t", 10.0));
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].metric, "packets_finished");
  EXPECT_EQ(bad[0].verdict, Verdict::kMismatch);
  // Exact: even a change far inside any threshold fails.
  EXPECT_EQ(failed(diff_bench_docs(a, b, "BENCH_t", 1e9)).size(), 1u);
}

TEST(DiffBench, DeterministicPayloadChangeFails) {
  const Json pa = Json::object().set("rows", Json::array().push(1.5));
  const Json pb = Json::object().set("rows", Json::array().push(1.25));
  const Json a = suite(true, {bench("k", 0, Json::object(), pa)});
  const Json b = suite(true, {bench("k", 0, Json::object(), pb)});
  const auto bad = failed(diff_bench_docs(a, b, "BENCH_t", 10.0));
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].metric, "payload");
  EXPECT_TRUE(failed(diff_bench_docs(a, a, "BENCH_t", 10.0)).empty());
}

TEST(DiffBench, DeterministicDroppedBenchmarkOrMetricFails) {
  const Json both = suite(true, {bench("k", 0, sim_metrics(5, 0)),
                                 bench("j", 0, sim_metrics(6, 0))});
  const Json dropped = suite(true, {bench("k", 0, sim_metrics(5, 0))});
  const auto bad = failed(diff_bench_docs(both, dropped, "BENCH_t", 10.0));
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].scope, "BENCH_t/j");
  EXPECT_EQ(failed(diff_bench_docs(dropped, both, "BENCH_t", 10.0)).size(),
            1u);

  const Json fewer = suite(
      true, {bench("k", 0, Json::object().set("packets_finished", 5.0)),
             bench("j", 0, sim_metrics(6, 0))});
  const auto missing = failed(diff_bench_docs(both, fewer, "BENCH_t", 10.0));
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].metric, "avg_latency");
}

TEST(DiffBench, TimedDroppedBenchmarkIsReportedOnly) {
  const Json both = suite(false, {bench("k", 100, sim_metrics(5, 50)),
                                  bench("j", 100, sim_metrics(6, 50))});
  const Json dropped = suite(false, {bench("k", 100, sim_metrics(5, 50))});
  EXPECT_TRUE(failed(diff_bench_docs(both, dropped, "BENCH_t", 10.0)).empty());
}

TEST(DiffRunDirs, StatsGateByDirectionAndLedgerIsInformational) {
  RunDirData a, b;
  a.stats = Json::object()
                .set("packets_offered", 100L)
                .set("latency", Json::object().set("avg", 10.0));
  b.stats = Json::object()
                .set("packets_offered", 90L)
                .set("latency", Json::object().set("avg", 20.0));
  a.ledger.push_back(Json::object().set("run_id", "aa"));
  b.ledger.push_back(Json::object().set("run_id", "bb"));
  const auto rows = diff_run_dirs(a, b, 5.0);
  const auto bad = failed(rows);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].metric, "latency.avg");
  EXPECT_EQ(bad[0].verdict, Verdict::kRegressed);
  for (const DiffRow& row : rows) {
    if (row.metric == "run_id") {
      EXPECT_EQ(row.verdict, Verdict::kChanged);
    }
  }
  EXPECT_TRUE(failed(diff_run_dirs(a, a, 0.0)).empty());
}

}  // namespace
}  // namespace xlp::obs
