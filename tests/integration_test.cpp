#include <gtest/gtest.h>

#include "core/app_specific.hpp"
#include "core/c_sweep.hpp"
#include "core/drivers.hpp"
#include "exp/scenarios.hpp"
#include "latency/model.hpp"
#include "route/deadlock.hpp"
#include "sim/throughput.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "traffic/demand.hpp"
#include "util/numeric.hpp"

namespace xlp {
namespace {

/// One optimized 8x8 design shared by the integration tests (solving once
/// keeps the suite fast; the budget is half of Table 1's, plenty for n=8).
const core::SweepPoint& optimized_8x8() {
  static const core::SweepPoint point = [] {
    core::SweepOptions options;
    options.sa = core::SaParams{}.with_moves(5000);
    options.latency = latency::LatencyParams::zero_load();
    Rng rng(7);
    auto points = core::sweep_link_limits(8, 8, options, rng);
    return points[core::best_point(points)];
  }();
  return point;
}

TEST(Integration, OptimizedDesignBeatsMeshAndHfbAnalytically) {
  // The headline: D&C_SA < HFB < Mesh in average latency on 8x8.
  const auto& best = optimized_8x8();
  const auto params = latency::LatencyParams::zero_load();
  const double mesh =
      latency::MeshLatencyModel(topo::make_mesh(8), params).average().total();
  const double hfb =
      latency::MeshLatencyModel(topo::make_hfb(8), params).average().total();
  const double dcsa = best.breakdown.total();
  EXPECT_LT(dcsa, hfb);
  EXPECT_LT(hfb, mesh);
  // Paper: 23.5% vs Mesh on the 8x8 network; demand the right ballpark.
  EXPECT_LT(dcsa, mesh * 0.85);
}

TEST(Integration, OptimizedDesignIsDeadlockFree) {
  const auto& best = optimized_8x8();
  const route::MeshRouting routing(best.design, route::HopWeights{});
  const route::ChannelDependencyGraph cdg(best.design, routing);
  EXPECT_FALSE(cdg.has_cycle());
}

TEST(Integration, SimulationConfirmsTheAnalyticOrdering) {
  const auto& best = optimized_8x8();
  const traffic::DemandRows demand(traffic::parsec_model("canneal"), 8);
  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 4000;
  config.drain_cycles = 4000;

  const auto mesh_stats = exp::simulate_design(topo::make_mesh(8), demand,
                                               config);
  const auto hfb_stats = exp::simulate_design(topo::make_hfb(8), demand,
                                              config);
  const auto dcsa_stats = exp::simulate_design(best.design, demand, config);

  EXPECT_TRUE(mesh_stats.drained);
  EXPECT_TRUE(dcsa_stats.drained);
  EXPECT_LT(dcsa_stats.avg_latency, mesh_stats.avg_latency);
  EXPECT_LT(dcsa_stats.avg_latency, hfb_stats.avg_latency * 1.05);
}

TEST(Integration, SimulationMatchesAnalyticWithinTolerance) {
  // At PARSEC loads the simulated latency should sit a little above the
  // zero-load analytic value (queueing) but well within the contention
  // allowance.
  const auto& best = optimized_8x8();
  const traffic::DemandRows demand(traffic::parsec_model("blackscholes"), 8);
  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 4000;
  config.drain_cycles = 4000;
  const auto stats = exp::simulate_design(best.design, demand, config);

  const latency::MeshLatencyModel model(best.design,
                                        latency::LatencyParams::zero_load());
  const auto analytic = model.weighted_average(demand);
  EXPECT_GE(stats.avg_latency, analytic.total() * 0.98);
  EXPECT_LE(stats.avg_latency, analytic.total() * 1.20);
}

TEST(Integration, ThroughputOrderingMatchesSection54) {
  // Mesh > D&C_SA > HFB in saturation throughput under uniform random.
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 1200;
  config.drain_cycles = 1200;
  const traffic::DemandRows shape(traffic::Pattern::kUniformRandom, 8, 1.0);

  const auto& best = optimized_8x8();
  const sim::Network mesh(topo::make_mesh(8), route::HopWeights{});
  const sim::Network hfb(topo::make_hfb(8), route::HopWeights{});
  const sim::Network dcsa(best.design, route::HopWeights{});

  const double mesh_sat =
      find_saturation(mesh, shape, config, 0.05, 0.5).saturation_throughput;
  const double hfb_sat =
      find_saturation(hfb, shape, config, 0.05, 0.5).saturation_throughput;
  const double dcsa_sat =
      find_saturation(dcsa, shape, config, 0.05, 0.5).saturation_throughput;

  // Paper quantities: HFB keeps less than half of the Mesh's throughput,
  // D&C_SA restores more than three quarters of it and sits well above the
  // HFB. (Our model slightly favors the optimized design over the Mesh —
  // equal buffer *bits* give narrow-flit designs deeper VCs — so we do not
  // assert the strict Mesh > D&C_SA ordering; see EXPERIMENTS.md.)
  EXPECT_GT(mesh_sat, 1.5 * hfb_sat);
  EXPECT_GT(dcsa_sat, 1.3 * hfb_sat);
  EXPECT_GT(dcsa_sat, 0.75 * mesh_sat);
}

TEST(Integration, AppSpecificImprovesOnGeneralPurpose) {
  // Section 5.6.4: with the traffic known in advance, per-row/column
  // placement cuts additional latency versus the uniform design.
  const traffic::DemandRows demand(traffic::parsec_model("dedup"), 8);

  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(1500);
  options.latency = latency::LatencyParams::zero_load();
  options.report_traffic = test::flows_of(demand);

  Rng rng1(5);
  auto general = core::sweep_link_limits(8, 8, options, rng1);
  const double general_best =
      general[core::best_point(general)].breakdown.total();

  Rng rng2(5);
  const auto app = core::solve_app_specific(demand, options, rng2);
  EXPECT_LE(app.breakdown.total(), general_best * 1.001);
}

TEST(Integration, SweepScalesTo16x16) {
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(800);
  options.latency = latency::LatencyParams::zero_load();
  Rng rng(3);
  const auto points = core::sweep_link_limits(16, 16, options, rng);
  ASSERT_EQ(points.size(), 7u);  // C in {1..64}
  const auto& best = points[core::best_point(points)];
  const double mesh = latency::MeshLatencyModel(
                          topo::make_mesh(16), latency::LatencyParams::zero_load())
                          .average()
                          .total();
  // Paper: 36.4% reduction on 16x16; expect at least 25% with this budget.
  EXPECT_LT(best.breakdown.total(), mesh * 0.75);
}

TEST(Integration, ScenarioHelpersProduceConsistentDesigns) {
  const auto designs = exp::fixed_designs(8);
  ASSERT_EQ(designs.size(), 2u);
  EXPECT_EQ(designs[0].name, "Mesh");
  EXPECT_EQ(designs[1].name, "HFB");
  EXPECT_TRUE(designs[0].design.is_feasible());
  EXPECT_TRUE(designs[1].design.is_feasible());
  EXPECT_EQ(exp::paper_sa_params().total_moves, 10000);
}

}  // namespace
}  // namespace xlp
