// Tests for the virtual-express-channel bypass mode.

#include <gtest/gtest.h>

#include "exp/scenarios.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"
#include "traffic/flows.hpp"

namespace xlp::sim {
namespace {

SimConfig vec_config(bool bypass) {
  SimConfig config;
  config.virtual_express_bypass = bypass;
  config.warmup_cycles = 100;
  config.measure_cycles = 2000;
  config.drain_cycles = 4000;
  return config;
}

long one_packet_latency(const topo::ExpressMesh& design, int src, int dst,
                        int bits, bool bypass) {
  const Network network(design, route::HopWeights{});
  const auto config = vec_config(bypass);
  Simulator simulator(network, config);
  simulator.schedule_packet(src, dst, bits, config.warmup_cycles + 10);
  const auto stats = simulator.run();
  EXPECT_EQ(stats.packets_finished, 1);
  return simulator.packet_latency(0);
}

TEST(VirtualExpress, StraightPathSkipsIntermediatePipelines) {
  // Mesh, (0,0) -> (5,0): 5 hops, 4 intermediate routers, all straight.
  // Full pipeline: (5+1)*3 + 5 + flits. With bypass each intermediate
  // router costs 1 cycle instead of 3: saving 2 per intermediate router.
  const topo::ExpressMesh mesh = topo::make_mesh(8);
  const long plain = one_packet_latency(mesh, 0, 5, 512, false);
  const long vec = one_packet_latency(mesh, 0, 5, 512, true);
  EXPECT_EQ(plain, 6 * 3 + 5 + 2);
  EXPECT_EQ(vec, plain - 2 * 4);
}

TEST(VirtualExpress, TurningRouterPaysTheFullPipeline) {
  // (0,0) -> (1,1): two hops with a turn; no straight intermediate router,
  // so VEC saves nothing.
  const topo::ExpressMesh mesh = topo::make_mesh(8);
  EXPECT_EQ(one_packet_latency(mesh, 0, 9, 512, true),
            one_packet_latency(mesh, 0, 9, 512, false));
}

TEST(VirtualExpress, LongXyPathSavesOnBothSegments) {
  // (0,0) -> (7,7): 7+7 hops; intermediate straight routers: 6 on the row
  // segment and 6 on the column segment (the turning router is not
  // straight).
  const topo::ExpressMesh mesh = topo::make_mesh(8);
  const long plain = one_packet_latency(mesh, 0, 63, 512, false);
  const long vec = one_packet_latency(mesh, 0, 63, 512, true);
  EXPECT_EQ(plain - vec, 2 * 12);
}

TEST(VirtualExpress, InjectionAndEjectionAreNeverBypassed) {
  // Single-hop packet: src router and dst router only; VEC changes nothing.
  const topo::ExpressMesh mesh = topo::make_mesh(8);
  EXPECT_EQ(one_packet_latency(mesh, 0, 1, 512, true),
            one_packet_latency(mesh, 0, 1, 512, false));
}

TEST(VirtualExpress, PhysicalExpressStillFasterOnLongHauls) {
  // The paper's Section 2.1 argument, end to end: physical bypass removes
  // the intermediate routers entirely (and the per-hop SA+ST), virtual
  // bypass only the front stages.
  const topo::ExpressMesh mesh = topo::make_mesh(8);
  const topo::RowTopology row(8, {{0, 7}});
  const topo::ExpressMesh physical(row, 2, 128);
  const long vec = one_packet_latency(mesh, 0, 7, 512, true);
  const long phys = one_packet_latency(physical, 0, 7, 512, false);
  // VEC: 2 full routers + 6 bypassed + 7 wire + 2 flits = 6+6+7+2 = 21.
  EXPECT_EQ(vec, 21);
  // Physical: 2 routers + 7 wire + 4 flits (128-bit links) = 17.
  EXPECT_EQ(phys, 17);
  EXPECT_LT(phys, vec);
}

TEST(VirtualExpress, ReducesAverageLatencyUnderLoad) {
  const topo::ExpressMesh mesh = topo::make_mesh(8);
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8, 0.02);
  const auto plain = exp::simulate_design(mesh, demand, vec_config(false));
  const auto vec = exp::simulate_design(mesh, demand, vec_config(true));
  EXPECT_TRUE(vec.drained);
  EXPECT_LT(vec.avg_latency, plain.avg_latency * 0.9);
}

TEST(VirtualExpress, BypassDoesNotBreakWormholeIntegrity) {
  // Under load with bypass on, every measured packet must still arrive
  // complete (the per-VC FIFO order is preserved by construction; this
  // exercises it).
  const topo::ExpressMesh mesh = topo::make_mesh(8);
  const traffic::DemandRows demand(traffic::Pattern::kTranspose, 8, 0.05);
  const auto stats = exp::simulate_design(mesh, demand, vec_config(true));
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.packets_finished, stats.packets_offered);
}

}  // namespace
}  // namespace xlp::sim
