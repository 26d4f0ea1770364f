// Tests for traffic concentration (c-mesh mapping) and the extended
// simulator statistics.

#include <gtest/gtest.h>

#include "exp/scenarios.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "traffic/flows.hpp"
#include "util/check.hpp"

namespace xlp {
namespace {

TEST(Concentrate, ValidatesArguments) {
  const traffic::Flows cores(8, 8, {});
  EXPECT_THROW(cores.concentrate(0), PreconditionError);
  EXPECT_THROW(cores.concentrate(3), PreconditionError);  // 8 % 3 != 0
  EXPECT_THROW(cores.concentrate(8), PreconditionError);  // 1x1 routers
  EXPECT_NO_THROW(cores.concentrate(2));
}

TEST(Concentrate, MapsTilesOntoRouters) {
  // Core (1,1) -> core (6,6): tiles (0,0) -> (3,3) on the 4x4 router grid.
  const traffic::Flows cores(8, 8, {{1 * 8 + 1, 6 * 8 + 6, 0.4}});
  const auto routers = cores.concentrate(2);
  EXPECT_EQ(routers.width(), 4);
  EXPECT_EQ(routers.height(), 4);
  EXPECT_EQ(routers.entries()[0], (traffic::Flow{0, 15, 0.4}));
  EXPECT_DOUBLE_EQ(routers.total_rate(), 0.4);
}

TEST(Concentrate, IntraTileTrafficLeavesTheNetwork) {
  const traffic::Flows cores(8, 8,
                             {{0, 1, 0.7},          // (0,0) -> (1,0): same tile
                              {0, 8 * 1 + 1, 0.2},  // (0,0) -> (1,1): same tile
                              {0, 2, 0.1}});        // (0,0) -> (2,0): next tile
  const auto routers = cores.concentrate(2);
  ASSERT_EQ(routers.entries().size(), 1u);
  EXPECT_EQ(routers.entries()[0], (traffic::Flow{0, 1, 0.1}));
}

TEST(Concentrate, AggregatesMultipleCores) {
  // Two cores of one tile both send to the same remote tile: rates add.
  const traffic::Flows cores(4, 4,
                             {{0, 3, 0.1},        // (0,0) -> (3,0)
                              {4 + 1, 3, 0.15}});  // (1,1) -> (3,0)
  const auto routers = cores.concentrate(2);
  ASSERT_EQ(routers.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(routers.entries()[0].rate, 0.25);
}

TEST(Concentrate, ConcentratedUniformStaysBalanced) {
  const traffic::DemandRows cores(traffic::Pattern::kUniformRandom, 8,
                                  0.02);
  const auto routers = test::flows_of(cores).concentrate(2);
  // 4 cores per router; 12/15 of each core's uniform traffic leaves the
  // tile (48 of the 63 destinations are remote tiles' cores... exactly:
  // 60 of 63 destinations are outside the sender's tile).
  const double expected_per_router = 4 * 0.02 * 60.0 / 63.0;
  const test::DenseDemand dense(routers);
  for (int r = 0; r < 16; ++r) {
    double offered = 0.0;
    for (int dst = 0; dst < 16; ++dst)
      offered += dense.rate(r, dst);
    EXPECT_NEAR(offered, expected_per_router, 1e-9);
  }
}

TEST(Concentrate, EnablesConcentratedButterflyFlow) {
  // The [17]-style flow: 16x16 cores, 4-way concentration, flattened
  // butterfly on the 8x8 router grid — end-to-end through the simulator.
  const traffic::DemandRows cores(traffic::Pattern::kUniformRandom, 16,
                                  0.008);
  const auto routers = test::flows_of(cores).concentrate(2);
  const auto fb = topo::make_flattened_butterfly(8);
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 2000;
  config.drain_cycles = 4000;
  const auto stats = exp::simulate_design(fb, routers, config);
  EXPECT_TRUE(stats.drained);
  EXPECT_GT(stats.packets_finished, 100);
  // Full row/column connectivity: at most 2 network hops.
  EXPECT_LE(stats.avg_hops, 2.0);
}

// --------------------------------------------------------------------------

TEST(SimStatsExtended, PercentilesAreOrdered) {
  const auto mesh = topo::make_mesh(8);
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8, 0.05);
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 3000;
  config.drain_cycles = 3000;
  const auto stats = exp::simulate_design(mesh, demand, config);
  EXPECT_GT(stats.p50_latency, 0.0);
  EXPECT_LE(stats.p50_latency, stats.p95_latency);
  EXPECT_LE(stats.p95_latency, stats.p99_latency);
  EXPECT_LE(stats.p99_latency, stats.max_latency);
  EXPECT_GE(stats.stddev_latency, 0.0);
  // Mean sits between p50 and max for right-skewed latency distributions.
  EXPECT_LE(stats.avg_latency, stats.max_latency);
}

TEST(SimStatsExtended, SinglePacketHasZeroSpread) {
  const auto mesh = topo::make_mesh(4);
  const sim::Network net(mesh, route::HopWeights{});
  sim::SimConfig config;
  config.warmup_cycles = 50;
  config.measure_cycles = 500;
  sim::Simulator simulator(net, config);
  simulator.schedule_packet(0, 15, 512, 60);
  const auto stats = simulator.run();
  EXPECT_DOUBLE_EQ(stats.stddev_latency, 0.0);
  EXPECT_DOUBLE_EQ(stats.p50_latency, stats.avg_latency);
  EXPECT_DOUBLE_EQ(stats.p99_latency, stats.avg_latency);
}

}  // namespace
}  // namespace xlp
