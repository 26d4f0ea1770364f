#include <gtest/gtest.h>

#include "exp/scenarios.hpp"
#include "sim/simulator.hpp"
#include "sim/throughput.hpp"
#include "topo/builders.hpp"

namespace xlp::sim {
namespace {

SimConfig config_with(Arbiter arbiter) {
  SimConfig config;
  config.arbiter = arbiter;
  config.warmup_cycles = 200;
  config.measure_cycles = 3000;
  config.drain_cycles = 6000;
  return config;
}

TEST(Arbiter, ZeroLoadLatencyIsArbiterIndependent) {
  const auto mesh = topo::make_mesh(8);
  const Network net(mesh, route::HopWeights{});
  for (const auto arbiter : {Arbiter::kRoundRobin, Arbiter::kOldestFirst}) {
    auto config = config_with(arbiter);
    Simulator simulator(net, config);
    simulator.schedule_packet(0, 63, 512, 300);
    (void)simulator.run();
    EXPECT_EQ(simulator.packet_latency(0), 15 * 3 + 14 + 2);
  }
}

TEST(Arbiter, OldestFirstDrainsAndConserves) {
  const auto mesh = topo::make_mesh(8);
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8, 0.05);
  const auto stats =
      exp::simulate_design(mesh, demand, config_with(Arbiter::kOldestFirst));
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.packets_finished, stats.packets_offered);
}

TEST(Arbiter, OldestFirstDoesNotHurtTheTailUnderLoad) {
  // Age-based allocation should keep the p99 tail at or below round-robin's
  // at a moderately loaded operating point (allowing simulation noise).
  const auto mesh = topo::make_mesh(8);
  const Network net(mesh, route::HopWeights{});
  const traffic::DemandRows shape(traffic::Pattern::kUniformRandom, 8, 1.0);
  const auto rr =
      simulate_at_load(net, shape, 0.15, config_with(Arbiter::kRoundRobin));
  const auto oldest =
      simulate_at_load(net, shape, 0.15, config_with(Arbiter::kOldestFirst));
  EXPECT_LE(oldest.p99_latency, rr.p99_latency * 1.10);
  // Means stay comparable.
  EXPECT_NEAR(oldest.avg_latency, rr.avg_latency, 0.15 * rr.avg_latency);
}

}  // namespace
}  // namespace xlp::sim
