// Rectangular (width != height) network support, end to end: topology,
// routing, the generalized reduction lemma, the simulator's zero-load
// contract, and the rectangular design sweep.

#include <gtest/gtest.h>

#include "core/app_specific.hpp"
#include "core/c_sweep.hpp"
#include "exp/scenarios.hpp"
#include "latency/model.hpp"
#include "latency/packet_mix.hpp"
#include "route/deadlock.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "util/check.hpp"

namespace xlp {
namespace {

TEST(RectTopology, DimensionsAndIndexing) {
  const auto mesh = topo::make_rect_mesh(8, 4);
  EXPECT_EQ(mesh.width(), 8);
  EXPECT_EQ(mesh.height(), 4);
  EXPECT_EQ(mesh.node_count(), 32);
  EXPECT_FALSE(mesh.is_square());
  EXPECT_THROW(mesh.side(), PreconditionError);
  EXPECT_EQ(mesh.node_id({7, 3}), 31);
  EXPECT_EQ(mesh.coord(9), (topo::Coord{1, 1}));
  EXPECT_EQ(mesh.row(0).size(), 8);
  EXPECT_EQ(mesh.col(0).size(), 4);
}

TEST(RectTopology, HeterogeneousValidation) {
  // 3 rows of width 4 + 4 columns of height 3.
  std::vector<topo::RowTopology> rows(3, topo::RowTopology(4));
  std::vector<topo::RowTopology> cols(4, topo::RowTopology(3));
  EXPECT_NO_THROW(topo::ExpressMesh(rows, cols, 1, 256));
  std::vector<topo::RowTopology> bad_cols(3, topo::RowTopology(3));
  EXPECT_THROW(topo::ExpressMesh(rows, bad_cols, 1, 256),
               PreconditionError);
}

TEST(RectTopology, RouterPortsAtCorners) {
  const auto mesh = topo::make_rect_mesh(8, 4);
  EXPECT_EQ(mesh.router_ports({0, 0}), 3);  // NI + right + down
  EXPECT_EQ(mesh.router_ports({4, 1}), 5);  // interior
}

TEST(RectRouting, XyPathOn8x4) {
  const auto mesh = topo::make_rect_mesh(8, 4);
  const route::MeshRouting routing(mesh, route::HopWeights{});
  // (1,0)=1 -> (6,3)=30: x 1..6 on row 0, then y 0..3 on column 6.
  const auto path = routing.path(1, 30);
  EXPECT_EQ(path.front(), 1);
  EXPECT_EQ(path.back(), 30);
  EXPECT_EQ(routing.hops(1, 30), 5 + 3);
  EXPECT_EQ(routing.width(), 8);
  EXPECT_EQ(routing.height(), 4);
}

TEST(RectRouting, ExpressRowsWork) {
  const topo::RowTopology row(8, {{0, 7}});
  const topo::RowTopology col(4);
  const auto mesh = topo::make_rect_design(row, col, 2);
  const route::MeshRouting routing(mesh, route::HopWeights{});
  EXPECT_EQ(routing.hops(0, 7), 1);
  EXPECT_EQ(routing.hops(0, 31), 1 + 3);
}

TEST(RectRouting, DeadlockFreeWithExpressLinks) {
  Rng rng(5);
  const topo::RowTopology row = test::random_valid_row(8, 4, rng);
  const topo::RowTopology col = test::random_valid_row(4, 4, rng);
  const auto mesh = topo::make_rect_design(row, col, 4);
  const route::MeshRouting routing(mesh, route::HopWeights{});
  for (const auto orientation :
       {route::Orientation::kXYFirst, route::Orientation::kYXFirst}) {
    const route::ChannelDependencyGraph cdg(mesh, routing, orientation);
    EXPECT_FALSE(cdg.has_cycle());
  }
}

TEST(RectLemma, GeneralizedReductionFormula) {
  // For a homogeneous w x h design, averaging head latency over ordered
  // pairs with src != dst:
  //   L_D,avg = [h^2*w*(w-1)*rc + w^2*h*(h-1)*cc] / (wh*(wh-1)) + Tr
  // where rc/cc are the average pairwise costs within one row / column.
  Rng rng(7);
  for (const auto& [w, h] :
       {std::pair{8, 4}, std::pair{4, 8}, std::pair{6, 3}, std::pair{5, 7}}) {
    const topo::RowTopology row = test::random_valid_row(w, 3, rng);
    const topo::RowTopology col = test::random_valid_row(h, 3, rng);
    const topo::ExpressMesh mesh(row, col, 3, 64);
    const route::DirectionalShortestPaths rp(row, route::HopWeights{});
    const route::DirectionalShortestPaths cp(col, route::HopWeights{});
    const double rc = rp.average_cost();
    const double cc = cp.average_cost();
    const double n = static_cast<double>(w) * h;
    const double expected =
        (static_cast<double>(h) * h * w * (w - 1) * rc +
         static_cast<double>(w) * w * h * (h - 1) * cc) /
            (n * (n - 1)) +
        3.0;
    const latency::MeshLatencyModel model(
        mesh, latency::LatencyParams::zero_load());
    EXPECT_NEAR(model.average().head, expected, 1e-9)
        << w << "x" << h << " " << row.to_string();
  }
}

TEST(RectSim, ZeroLoadMatchesAnalytic) {
  Rng rng(3);
  const topo::RowTopology row = test::random_valid_row(8, 4, rng);
  const topo::RowTopology col = test::random_valid_row(4, 2, rng);
  const auto design = topo::make_rect_design(row, col, 4);
  const latency::MeshLatencyModel model(design,
                                        latency::LatencyParams::zero_load());

  const sim::Network network(design, route::HopWeights{});
  sim::SimConfig config;
  config.warmup_cycles = 100;
  config.measure_cycles = 2000;
  sim::Simulator simulator(network, config);
  simulator.schedule_packet(0, 31, 512, 150);
  simulator.schedule_packet(31, 0, 128, 600);
  const auto stats = simulator.run();
  EXPECT_EQ(stats.packets_finished, 2);

  const int flits_long = latency::PacketMix::flits_for(512,
                                                       design.flit_bits());
  const int flits_short = latency::PacketMix::flits_for(128,
                                                        design.flit_bits());
  EXPECT_EQ(simulator.packet_latency(0),
            static_cast<long>(model.pair_head_latency(0, 31)) + flits_long);
  EXPECT_EQ(simulator.packet_latency(1),
            static_cast<long>(model.pair_head_latency(31, 0)) + flits_short);
}

TEST(RectSim, UniformLoadDrains) {
  const auto design = topo::make_rect_mesh(8, 4);
  std::vector<traffic::Flow> flows;
  for (int src = 0; src < 32; ++src)
    for (int dst = 0; dst < 32; ++dst)
      if (src != dst) flows.push_back({src, dst, 0.02 / 31.0});
  const traffic::Flows demand(8, 4, std::move(flows));
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 2000;
  config.drain_cycles = 3000;
  const auto stats = exp::simulate_design(design, demand, config);
  EXPECT_TRUE(stats.drained);
  EXPECT_GT(stats.packets_finished, 100);
}

TEST(RectSim, MismatchedDemandIsRejected) {
  const auto design = topo::make_rect_mesh(8, 4);
  const sim::Network network(design, route::HopWeights{});
  const traffic::Flows wrong(4, 8, {});
  EXPECT_THROW(sim::Simulator(network, wrong, sim::SimConfig{}),
               PreconditionError);
}

TEST(RectSweep, OptimizesBothDimensions) {
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(500);
  options.latency = latency::LatencyParams::zero_load();
  Rng rng(9);
  const auto points = core::sweep_link_limits(8, 4, options, rng);
  ASSERT_GE(points.size(), 3u);
  for (const auto& p : points) {
    EXPECT_EQ(p.design.width(), 8);
    EXPECT_EQ(p.design.height(), 4);
    EXPECT_TRUE(p.design.is_feasible());
  }
  const auto& best = points[core::best_point(points)];
  const double mesh_total =
      core::evaluate_design(topo::make_rect_mesh(8, 4), options.latency, {})
          .total();
  EXPECT_LT(best.breakdown.total(), mesh_total);
}

TEST(RectAppSpecific, WorksOnRectangularDemand) {
  const traffic::Flows demand(4, 8, {{0, 31, 1.0}, {31, 0, 1.0}});
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(200);
  options.latency = latency::LatencyParams::zero_load();
  Rng rng(13);
  const auto result = core::solve_app_specific(demand, options, rng);
  EXPECT_EQ(result.design.width(), 4);
  EXPECT_EQ(result.design.height(), 8);
  EXPECT_TRUE(result.design.is_feasible());
}

TEST(RectConcentrate, RectangularTiles) {
  // (0,0) -> (7,3): tiles (0,0) -> (3,1) on 4x2.
  const traffic::Flows m(8, 4, {{0, 31, 0.5}});
  const auto routers = m.concentrate(2);
  EXPECT_EQ(routers.width(), 4);
  EXPECT_EQ(routers.height(), 2);
  EXPECT_EQ(routers.entries()[0], (traffic::Flow{0, 7, 0.5}));
}

}  // namespace
}  // namespace xlp
