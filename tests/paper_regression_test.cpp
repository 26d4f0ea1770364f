// Regression guard on the reproduction itself. The analytic headlines
// (Figs. 5, 11, 12 and Table 2) must stay inside their bands; budgets are
// reduced versus the paper suite so the bands are generous. The budget
// series, simulated and power claims (Figs. 6-10 and Section 5.6.4) run the
// registered paper/* bodies once through the bench runner, at whatever
// XLP_BENCH_SCALE the run sets, and check the shape of their results:
// orderings and bounds, not exact values (CI pins those against
// ci/bench-baseline/BENCH_paper.json).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/branch_bound.hpp"
#include "core/c_sweep.hpp"
#include "exp/scenarios.hpp"
#include "harness.hpp"
#include "latency/model.hpp"
#include "suites.hpp"
#include "topo/builders.hpp"
#include "util/numeric.hpp"

namespace xlp {
namespace {

core::SweepOptions quick_options() {
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(3000);
  options.latency = latency::LatencyParams::zero_load();
  return options;
}

double best_total(int n, std::uint64_t seed) {
  auto options = quick_options();
  Rng rng(seed);
  const auto points = core::sweep_link_limits(n, n, options, rng);
  return points[core::best_point(points)].breakdown.total();
}

double mesh_total(int n) {
  return core::evaluate_design(topo::make_mesh(n),
                               latency::LatencyParams::zero_load(), {})
      .total();
}

double hfb_total(int n) {
  return core::evaluate_design(topo::make_hfb(n),
                               latency::LatencyParams::zero_load(), {})
      .total();
}

TEST(PaperRegression, Headline4x4) {
  // Paper: 8.1% vs Mesh, parity with HFB.
  const double reduction = -percent_change(best_total(4, 1), mesh_total(4));
  EXPECT_GE(reduction, 6.0);
  EXPECT_LE(reduction, 10.0);
}

TEST(PaperRegression, Headline8x8) {
  // Paper: 23.5% vs Mesh, 8.0% vs HFB.
  const double best = best_total(8, 2);
  EXPECT_GE(-percent_change(best, mesh_total(8)), 20.0);
  EXPECT_GE(-percent_change(best, hfb_total(8)), 4.0);
}

TEST(PaperRegression, Headline16x16) {
  // Paper: 36.4% vs Mesh, 20.1% vs HFB.
  const double best = best_total(16, 3);
  EXPECT_GE(-percent_change(best, mesh_total(16)), 32.0);
  EXPECT_GE(-percent_change(best, hfb_total(16)), 15.0);
}

TEST(PaperRegression, Table2ExactCells) {
  // The four paper cells our calibrated model lands on exactly.
  const auto params = latency::LatencyParams::zero_load();
  EXPECT_NEAR(
      latency::MeshLatencyModel(topo::make_mesh(4), params).worst_case(),
      28.2, 1e-9);
  EXPECT_NEAR(
      latency::MeshLatencyModel(topo::make_mesh(8), params).worst_case(),
      60.2, 1e-9);
  EXPECT_NEAR(
      latency::MeshLatencyModel(topo::make_hfb(8), params).worst_case(),
      38.2, 1e-9);
  EXPECT_NEAR(
      latency::MeshLatencyModel(topo::make_hfb(16), params).worst_case(),
      63.8, 1e-9);
}

TEST(PaperRegression, Fig11BandwidthScaling) {
  // Paper: 2 -> 8 KGb/s improves the Mesh ~2.3% and D&C_SA ~17.8%.
  auto at_bandwidth = [&](int base_bits, std::uint64_t seed) {
    auto options = quick_options();
    options.base_flit_bits = base_bits;
    Rng rng(seed);
    const auto points = core::sweep_link_limits(8, 8, options, rng);
    const double best = points[core::best_point(points)].breakdown.total();
    const double mesh =
        core::evaluate_design(topo::make_mesh(8, base_bits),
                              options.latency, {})
            .total();
    return std::pair{mesh, best};
  };
  const auto [mesh_2k, dcsa_2k] = at_bandwidth(128, 4);
  const auto [mesh_8k, dcsa_8k] = at_bandwidth(512, 5);

  const double mesh_gain = -percent_change(mesh_8k, mesh_2k);
  const double dcsa_gain = -percent_change(dcsa_8k, dcsa_2k);
  EXPECT_GE(mesh_gain, 1.0);
  EXPECT_LE(mesh_gain, 5.0);
  EXPECT_GE(dcsa_gain, 12.0);
  EXPECT_LE(dcsa_gain, 25.0);
  EXPECT_GT(dcsa_gain, 3.0 * mesh_gain);
}

TEST(PaperRegression, BestCIsInteriorAndSerializationScissors) {
  // Fig. 5's qualitative structure on 8x8: interior optimum; L_D strictly
  // decreasing in C; L_S strictly increasing.
  auto options = quick_options();
  Rng rng(6);
  const auto points = core::sweep_link_limits(8, 8, options, rng);
  const std::size_t best = core::best_point(points);
  EXPECT_GT(best, 0u);
  EXPECT_LT(best, points.size() - 1);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].breakdown.head, points[i - 1].breakdown.head + 0.15);
    EXPECT_GT(points[i].breakdown.serialization,
              points[i - 1].breakdown.serialization);
  }
}

TEST(PaperRegression, Fig12OptimalityGap) {
  // Paper: D&C_SA within 1.3% of the exact optimum everywhere verifiable.
  for (const auto& [n, limit] :
       {std::pair{4, 2}, std::pair{8, 2}, std::pair{8, 3}, std::pair{8, 4}}) {
    const core::RowObjective obj(n, route::HopWeights{});
    core::BranchAndBound bb(obj, limit);
    const double optimum = bb.solve().value;
    Rng rng(static_cast<std::uint64_t>(n + limit));
    const auto dcsa = core::solve_dcsa(obj, limit, core::SaParams{}, rng);
    EXPECT_LE(dcsa.value, optimum * 1.013 + 1e-12)
        << "P(" << n << "," << limit << ")";
  }
}

// Runs the registered benchmark paper/<name> once and returns its result.
bench::BenchResult run_paper(const std::string& name) {
  bench::register_all_suites();
  bench::RunnerOptions options;
  options.warmup = 0;
  options.repeats = 1;
  options.out_dir.clear();
  options.deterministic = true;
  options.filter = "^paper/" + name + "$";
  const auto reports = bench::Runner(options).run();
  if (reports.size() != 1 || reports[0].results.size() != 1) {
    ADD_FAILURE() << "paper/" << name << " is not registered exactly once";
    return {};
  }
  return reports[0].results[0];
}

double counter(const bench::BenchResult& result, const std::string& name) {
  for (const auto& [key, value] : result.counters)
    if (key == name) return value;
  ADD_FAILURE() << result.name << " has no counter " << name;
  return 0.0;
}

double field(const obs::Json& row, const std::string& key) {
  const obs::Json* value = row.find(key);
  if (value == nullptr || !value->is_number()) {
    ADD_FAILURE() << "row has no number " << key;
    return 0.0;
  }
  return value->as_number();
}

// The rows array `key` of a result's payload (an empty array if missing).
const obs::Json& rows(const bench::BenchResult& result,
                      const std::string& key = "rows") {
  static const obs::Json kEmpty = obs::Json::array();
  const obs::Json* found = result.payload.find(key);
  EXPECT_TRUE(found != nullptr && found->is_array()) << "no " << key;
  return found != nullptr && found->is_array() ? *found : kEmpty;
}

// D&C_SA < HFB < Mesh on one {"mesh","hfb","dcsa"} row.
void expect_ordered(const obs::Json& row, const std::string& label) {
  EXPECT_LT(field(row, "dcsa"), field(row, "hfb")) << label;
  EXPECT_LT(field(row, "hfb"), field(row, "mesh")) << label;
}

TEST(PaperShape, Fig6LatencyOrderOnEveryParsecBenchmark) {
  const auto result = run_paper("fig06");
  const obs::Json& benchmarks = rows(result);
  EXPECT_EQ(benchmarks.size(), 10u);
  for (std::size_t i = 0; i < benchmarks.size(); ++i)
    expect_ordered(benchmarks.at(i),
                   benchmarks.at(i).find("benchmark")->as_string());
  EXPECT_LT(counter(result, "avg_dcsa"), counter(result, "avg_hfb"));
  EXPECT_LT(counter(result, "avg_hfb"), counter(result, "avg_mesh"));
}

TEST(PaperShape, Fig7BudgetsGrowAndLatencyNeverRisesOverTheSeries) {
  // Fig. 7's axis is the evaluation budget: it must grow strictly along
  // each series, and both algorithms end at or below where they start.
  const auto result = run_paper("fig07");
  const obs::Json& series = rows(result, "series");
  ASSERT_EQ(series.size(), 2u);
  for (std::size_t s = 0; s < series.size(); ++s) {
    const int n = static_cast<int>(field(series.at(s), "n"));
    EXPECT_EQ(n, s == 0 ? 8 : 16);
    const obs::Json* points = series.at(s).find("points");
    ASSERT_TRUE(points != nullptr && points->is_array()) << n;
    ASSERT_EQ(points->size(), 8u) << n;
    for (std::size_t i = 1; i < points->size(); ++i)
      EXPECT_GT(field(points->at(i), "budget_evals"),
                field(points->at(i - 1), "budget_evals"))
          << n << " point " << i;
    const obs::Json& first = points->at(0);
    const obs::Json& last = points->at(points->size() - 1);
    EXPECT_EQ(field(first, "runtime_units"), 1.0) << n;
    EXPECT_EQ(field(last, "runtime_units"), 1000.0) << n;
    for (const char* key : {"dcsa_latency", "onlysa_latency"})
      EXPECT_LE(field(last, key), field(first, key)) << n << " " << key;
  }
}

TEST(PaperShape, Fig8LatencyOrderAndHfbSaturatesFirst) {
  const auto result = run_paper("fig08");
  const obs::Json& patterns = rows(result, "latency");
  EXPECT_EQ(patterns.size(), 3u);
  for (std::size_t i = 0; i < patterns.size(); ++i)
    expect_ordered(patterns.at(i),
                   patterns.at(i).find("pattern")->as_string());
  const double hfb = counter(result, "saturation_hfb");
  EXPECT_LT(hfb, counter(result, "saturation_mesh"));
  EXPECT_LT(hfb, counter(result, "saturation_dcsa"));
}

TEST(PaperShape, Fig9DynamicPowerOrderAndTotalBelowMesh) {
  // Total power vs HFB is not asserted: D&C_SA measures 1.5-1.9% above
  // HFB here, a known divergence from the paper (EXPERIMENTS.md).
  const auto result = run_paper("fig09");
  EXPECT_LT(counter(result, "dynamic_w_dcsa"),
            counter(result, "dynamic_w_hfb"));
  EXPECT_LT(counter(result, "dynamic_w_hfb"),
            counter(result, "dynamic_w_mesh"));
  EXPECT_LT(counter(result, "total_w_dcsa"), counter(result, "total_w_mesh"));
}

TEST(PaperShape, Fig10EqualBufferLeakageAndSmallTables) {
  const auto result = run_paper("fig10");
  const obs::Json& schemes = rows(result);
  ASSERT_EQ(schemes.size(), 3u);
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    EXPECT_DOUBLE_EQ(field(schemes.at(i), "buffer_w"),
                     field(schemes.at(0), "buffer_w"));
    EXPECT_LT(field(schemes.at(i), "table_overhead_pct"), 0.5);
  }
}

TEST(PaperShape, Fig5ExpressLinksCutLatencyAtEverySize) {
  // The bands of the Headline tests above, on the registered bodies'
  // full-budget sweeps: 8.1% / 23.5% / 36.4% vs Mesh in the paper.
  for (const auto& [size, vs_mesh, vs_hfb] :
       {std::tuple{"4x4", 6.0, 0.0}, std::tuple{"8x8", 20.0, 4.0},
        std::tuple{"16x16", 32.0, 15.0}}) {
    const auto result = run_paper(std::string("fig05_") + size);
    EXPECT_GE(counter(result, "cut_vs_mesh_pct"), vs_mesh) << size;
    EXPECT_GE(counter(result, "cut_vs_hfb_pct"), vs_hfb) << size;
    EXPECT_LE(counter(result, "best_total"), counter(result, "hfb_total"))
        << size;
  }
}

TEST(PaperShape, Fig11WiderFlitsHelpDcsaMoreThanMesh) {
  const auto result = run_paper("fig11");
  const obs::Json& budgets = rows(result, "budgets");
  ASSERT_EQ(budgets.size(), 3u);
  for (std::size_t i = 1; i < budgets.size(); ++i) {
    EXPECT_LT(field(budgets.at(i), "mesh_total"),
              field(budgets.at(i - 1), "mesh_total"));
    EXPECT_LT(field(budgets.at(i), "best_total"),
              field(budgets.at(i - 1), "best_total"));
  }
  const double mesh_gain = counter(result, "mesh_gain_pct");
  EXPECT_GT(mesh_gain, 0.0);
  EXPECT_GT(counter(result, "dcsa_gain_pct"), 3.0 * mesh_gain);
}

TEST(PaperShape, Fig12DcsaWithinGapOfTheExactOptimum) {
  // Branch-and-bound is exact, so D&C_SA can tie it but never beat it.
  const auto result = run_paper("fig12");
  const obs::Json& problems = rows(result);
  EXPECT_EQ(problems.size(), 5u);
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const std::string label = problems.at(i).find("problem")->as_string();
    const double optimal = field(problems.at(i), "optimal");
    const double dcsa = field(problems.at(i), "dcsa");
    EXPECT_GE(dcsa, optimal - 1e-9) << label;
    EXPECT_LE(dcsa, optimal * 1.013 + 1e-12) << label;
  }
  EXPECT_LE(counter(result, "max_gap_pct"), 1.3);
}

TEST(PaperShape, Table2DcsaWorstCaseAtOrBelowHfb) {
  const auto result = run_paper("table2");
  for (const char* size : {"4x4", "8x8", "16x16"}) {
    const std::string s(size);
    EXPECT_LE(counter(result, "dcsa_" + s), counter(result, "hfb_" + s)) << s;
    EXPECT_LT(counter(result, "hfb_" + s), counter(result, "mesh_" + s)) << s;
  }
  EXPECT_LT(counter(result, "dcsa_8x8"), counter(result, "hfb_8x8"));
  EXPECT_LT(counter(result, "dcsa_16x16"), counter(result, "hfb_16x16"));
}

TEST(PaperSuites, EveryExperimentIsRegisteredOnce) {
  bench::register_all_suites();
  const std::string expected[] = {
      "paper/fig05_4x4",
      "paper/fig05_8x8",
      "paper/fig05_16x16",
      "paper/fig07",
      "paper/fig06",
      "paper/fig08",
      "paper/fig09",
      "paper/fig10",
      "paper/fig11",
      "paper/fig12",
      "paper/table2",
      "paper/app_specific",
      "ablation/generators",
      "ablation/routing_comparison",
      "ablation/virtual_vs_physical",
      "ablation/bandwidth_utilization",
      "ablation/optimizer_comparison",
      "ablation/worst_case_objective",
      "ablation/arbiter"};
  const auto& specs = bench::Registry::global().specs();
  for (const auto& name : expected) {
    const auto matches =
        std::count_if(specs.begin(), specs.end(), [&](const auto& spec) {
          return spec.suite + "/" + spec.name == name;
        });
    EXPECT_EQ(matches, 1) << name;
  }
}

TEST(PaperShape, AppSpecificCutsSkewedWorkloads) {
  const auto result = run_paper("app_specific");
  EXPECT_EQ(rows(result, "skewed").size(), 4u);
  EXPECT_GT(counter(result, "skewed_avg_extra_cut_pct"), 5.0);
}

}  // namespace
}  // namespace xlp
