#include <gtest/gtest.h>

#include "sim/config.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"
#include "util/check.hpp"

namespace xlp::sim {
namespace {

TEST(SimConfig, DefaultBufferBudgetMatchesMeshRouter) {
  // 5 ports x 4 VCs x 8 flits x 256 bits: the canonical mesh router.
  const SimConfig config;
  EXPECT_EQ(config.buffer_bits_per_router, 5L * 4 * 8 * 256);
}

TEST(SimConfig, VcDepthDerivesFromEqualBits) {
  const SimConfig config;
  // Mesh interior router: 5 ports, 256-bit flits -> the canonical 8 deep.
  EXPECT_EQ(config.vc_depth_flits(5, 256), 8);
  // Same budget, narrow flits: depth scales up.
  EXPECT_EQ(config.vc_depth_flits(5, 64), 32);
  // Many ports eat the budget: depth scales down but never below 2.
  EXPECT_EQ(config.vc_depth_flits(10, 256), 4);
  EXPECT_EQ(config.vc_depth_flits(40, 256), 2);
}

TEST(SimConfig, DepthFloorKeepsCreditsFlowing) {
  const SimConfig config;
  // Extreme: so many wide ports the naive division would give 0.
  EXPECT_GE(config.vc_depth_flits(100, 256), 2);
}

TEST(NetworkSide, ThrowsForRectangular) {
  const Network net(topo::make_rect_mesh(8, 4), route::HopWeights{});
  EXPECT_EQ(net.width(), 8);
  EXPECT_EQ(net.height(), 4);
  EXPECT_THROW(net.side(), PreconditionError);
  const Network square(topo::make_mesh(4), route::HopWeights{});
  EXPECT_EQ(square.side(), 4);
}

TEST(SimConfigValidation, PipelineAndVcBounds) {
  const Network net(topo::make_mesh(4), route::HopWeights{});
  SimConfig config;
  config.pipeline_stages = 0;
  EXPECT_THROW(Simulator(net, config), PreconditionError);
  config = SimConfig{};
  config.vcs_per_port = 0;
  EXPECT_THROW(Simulator(net, config), PreconditionError);
}

}  // namespace
}  // namespace xlp::sim
