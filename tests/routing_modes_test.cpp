// Tests for the YX and O1TURN routing extensions and the trace-driven
// simulation support.

#include <gtest/gtest.h>

#include <sstream>

#include "exp/scenarios.hpp"
#include "latency/model.hpp"
#include "route/deadlock.hpp"
#include "sim/simulator.hpp"
#include "sim/throughput.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "traffic/trace.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace xlp {
namespace {

using route::Orientation;

TEST(Orientation, YxRoutesColumnFirst) {
  const topo::ExpressMesh mesh = topo::make_mesh(4);
  const route::MeshRouting routing(mesh, route::HopWeights{});
  // (0,0)=0 -> (2,3)=14. XY: x to 2 then down. YX: down to y=3 then right.
  EXPECT_EQ(routing.path(0, 14, Orientation::kXYFirst),
            (std::vector<int>{0, 1, 2, 6, 10, 14}));
  EXPECT_EQ(routing.path(0, 14, Orientation::kYXFirst),
            (std::vector<int>{0, 4, 8, 12, 13, 14}));
}

TEST(Orientation, HopsAgreeOnHomogeneousDesigns) {
  Rng rng(3);
  const topo::RowTopology row = test::random_valid_row(8, 4, rng);
  const topo::ExpressMesh mesh = topo::make_design(row, 4);
  const route::MeshRouting routing(mesh, route::HopWeights{});
  for (int s = 0; s < 64; s += 5)
    for (int d = 0; d < 64; d += 7) {
      if (s == d) continue;
      EXPECT_EQ(routing.hops(s, d, Orientation::kXYFirst),
                routing.hops(s, d, Orientation::kYXFirst));
      EXPECT_DOUBLE_EQ(routing.head_cost(s, d, Orientation::kXYFirst),
                       routing.head_cost(s, d, Orientation::kYXFirst));
    }
}

TEST(Orientation, HopsCanDifferOnHeterogeneousDesigns) {
  // Rows have an end-to-end express link, columns do not: XY uses the
  // source row (fast), YX uses the destination row (also fast) — make them
  // differ per row instead.
  const int n = 4;
  std::vector<topo::RowTopology> rows;
  rows.push_back(topo::RowTopology(n, {{0, 3}}));  // row 0 has express
  rows.insert(rows.end(), 3, topo::RowTopology(n));
  std::vector<topo::RowTopology> cols(4, topo::RowTopology(n));
  const topo::ExpressMesh mesh(rows, cols, 2, 128);
  const route::MeshRouting routing(mesh, route::HopWeights{});
  // (0,0) -> (3,3): XY rides row 0's express link (1 hop + 3 col hops);
  // YX walks column 0 then row 3's locals (3 + 3).
  EXPECT_EQ(routing.hops(0, 15, Orientation::kXYFirst), 4);
  EXPECT_EQ(routing.hops(0, 15, Orientation::kYXFirst), 6);
}

TEST(Orientation, BothOrientationsDeadlockFreeOnExpressDesigns) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const topo::RowTopology row = test::random_valid_row(6, 4, rng);
    const topo::ExpressMesh mesh = topo::make_design(row, 4);
    const route::MeshRouting routing(mesh, route::HopWeights{});
    EXPECT_FALSE(route::ChannelDependencyGraph(mesh, routing,
                                               Orientation::kXYFirst)
                     .has_cycle());
    EXPECT_FALSE(route::ChannelDependencyGraph(mesh, routing,
                                               Orientation::kYXFirst)
                     .has_cycle());
  }
}

// --------------------------------------------------------------------------
// Simulator routing modes

sim::SimConfig quiet_config(sim::RoutingMode mode) {
  sim::SimConfig config;
  config.routing = mode;
  config.warmup_cycles = 100;
  config.measure_cycles = 2000;
  config.drain_cycles = 4000;
  return config;
}

long one_packet_latency(const topo::ExpressMesh& design, int src, int dst,
                        int bits, sim::RoutingMode mode) {
  const sim::Network network(design, route::HopWeights{});
  const auto config = quiet_config(mode);
  sim::Simulator simulator(network, config);
  simulator.schedule_packet(src, dst, bits, config.warmup_cycles + 10);
  const auto stats = simulator.run();
  EXPECT_EQ(stats.packets_finished, 1);
  return simulator.packet_latency(0);
}

TEST(SimRoutingModes, YxZeroLoadMatchesAnalytic) {
  const topo::ExpressMesh mesh = topo::make_mesh(8);
  const route::MeshRouting routing(mesh, route::HopWeights{});
  for (const auto& [src, dst] :
       {std::pair{0, 63}, std::pair{9, 54}, std::pair{7, 56}}) {
    const int hops = routing.hops(src, dst, Orientation::kYXFirst);
    const int dist = std::abs(src % 8 - dst % 8) + std::abs(src / 8 - dst / 8);
    const long expected = (hops + 1) * 3 + dist + 2;  // 512 bits = 2 flits
    EXPECT_EQ(one_packet_latency(mesh, src, dst, 512, sim::RoutingMode::kYX),
              expected);
  }
}

TEST(SimRoutingModes, O1TurnRequiresTwoVcs) {
  const sim::Network net(topo::make_mesh(4), route::HopWeights{});
  sim::SimConfig config = quiet_config(sim::RoutingMode::kO1Turn);
  config.vcs_per_port = 1;
  EXPECT_THROW(sim::Simulator(net, config),
               PreconditionError);
}

TEST(SimRoutingModes, O1TurnDrainsAtLowLoadOnExpressDesign) {
  Rng rng(5);
  const topo::RowTopology row = test::random_valid_row(8, 4, rng);
  const topo::ExpressMesh design = topo::make_design(row, 4);
  const sim::Network net(design, route::HopWeights{});
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8, 0.02);
  sim::Simulator simulator(net, demand,
                           quiet_config(sim::RoutingMode::kO1Turn));
  const auto stats = simulator.run();
  EXPECT_TRUE(stats.drained);
  EXPECT_GT(stats.packets_finished, 100);
}

TEST(SimRoutingModes, XyAndO1TurnWithinOnePercentAtParsecLoad) {
  // Section 4.2's justification for assuming DOR.
  const topo::ExpressMesh mesh = topo::make_mesh(8);
  const traffic::DemandRows demand(traffic::parsec_model("bodytrack"), 8);
  sim::SimConfig xy = quiet_config(sim::RoutingMode::kXY);
  xy.measure_cycles = 6000;
  sim::SimConfig o1 = xy;
  o1.routing = sim::RoutingMode::kO1Turn;
  const auto xy_stats = exp::simulate_design(mesh, demand, xy);
  const auto o1_stats = exp::simulate_design(mesh, demand, o1);
  EXPECT_NEAR(xy_stats.avg_latency, o1_stats.avg_latency,
              0.02 * xy_stats.avg_latency);
}

TEST(SimRoutingModes, O1TurnBeatsXyOnSaturatedTranspose) {
  // Transpose is adversarial for XY; spreading packets over both dimension
  // orders raises saturation throughput. Use 8 VCs so each orientation
  // class keeps 4 — with the default 4 the per-class VC shortage eats most
  // of the path-diversity gain.
  const sim::Network net(topo::make_mesh(8), route::HopWeights{});
  const traffic::DemandRows shape(traffic::Pattern::kTranspose, 8, 1.0);
  sim::SimConfig xy = quiet_config(sim::RoutingMode::kXY);
  xy.vcs_per_port = 8;
  xy.warmup_cycles = 200;
  xy.measure_cycles = 1500;
  xy.drain_cycles = 1500;
  sim::SimConfig o1 = xy;
  o1.routing = sim::RoutingMode::kO1Turn;
  const double xy_thr =
      sim::find_saturation(net, shape, xy, 0.02, 0.4).saturation_throughput;
  const double o1_thr =
      sim::find_saturation(net, shape, o1, 0.02, 0.4).saturation_throughput;
  EXPECT_GT(o1_thr, xy_thr * 1.15);
}

// --------------------------------------------------------------------------
// Traces

TEST(Trace, ValidatesPackets) {
  EXPECT_THROW(traffic::Trace(4, 10, {{11, 0, 1, 128}}), PreconditionError);
  EXPECT_THROW(traffic::Trace(4, 10, {{0, 3, 3, 128}}), PreconditionError);
  EXPECT_THROW(traffic::Trace(4, 10, {{0, 0, 1, 0}}), PreconditionError);
  EXPECT_THROW(traffic::Trace(4, 10, {{5, 0, 1, 128}, {2, 0, 1, 128}}),
               PreconditionError);
  EXPECT_NO_THROW(traffic::Trace(4, 10, {{2, 0, 1, 128}, {5, 0, 1, 128}}));
}

TEST(Trace, SampleMatchesDemandStatistically) {
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 4, 0.1);
  Rng rng(7);
  const auto trace = traffic::Trace::sample(demand, 20000, rng);
  EXPECT_NEAR(trace.offered_per_node_cycle(), 0.1, 0.01);
  const double offered = test::flows_of(demand).total_rate();
  EXPECT_NEAR(trace.observed().total_rate(), offered, 0.1 * offered);
}

TEST(Trace, SaveLoadRoundTrip) {
  const traffic::DemandRows demand(traffic::Pattern::kTranspose, 4, 0.05);
  Rng rng(9);
  const auto trace = traffic::Trace::sample(demand, 500, rng);
  std::stringstream buffer;
  trace.save(buffer);
  const auto loaded = traffic::Trace::load(buffer);
  EXPECT_EQ(loaded, trace);
}

TEST(Trace, LoadRejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(traffic::Trace::load(empty), Error);
  // A bad magic or line, a self-directed packet, and header sides outside
  // [2, 256]: 65536 * 65536 overflows an int, 300 is past the request's
  // n range.
  for (const char* text :
       {"not_a_trace 8 100\n", "xlptrace 4 100\n1 2 x 128\n",
        "xlptrace 4 4 100\n1 2 2 128\n", "xlptrace 65536 65536 10\n",
        "xlptrace 300 300 10\n", "xlptrace 8 257 10\n",
        "xlptrace 1 8 10\n"}) {
    std::stringstream in(text);
    EXPECT_THROW(traffic::Trace::load(in), Error) << text;
  }
  std::stringstream largest("xlptrace 256 256 10\n0 0 65535 128\n");
  EXPECT_EQ(traffic::Trace::load(largest).side(), 256);
}

TEST(Trace, ReplayMeasuresEveryPacket) {
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 4, 0.03);
  Rng rng(11);
  const auto trace = traffic::Trace::sample(demand, 2000, rng);
  const auto stats =
      exp::replay_trace(topo::make_mesh(4), trace, sim::SimConfig{});
  EXPECT_EQ(stats.packets_offered,
            static_cast<long>(trace.packets().size()));
  EXPECT_EQ(stats.packets_finished, stats.packets_offered);
  EXPECT_TRUE(stats.drained);
  EXPECT_GT(stats.avg_latency, 0.0);
}

TEST(Trace, ReplayIsDeterministic) {
  const traffic::DemandRows demand(traffic::Pattern::kTranspose, 4, 0.02);
  Rng rng(13);
  const auto trace = traffic::Trace::sample(demand, 1000, rng);
  const auto a = exp::replay_trace(topo::make_mesh(4), trace,
                                   sim::SimConfig{});
  const auto b = exp::replay_trace(topo::make_mesh(4), trace,
                                   sim::SimConfig{});
  EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
}

TEST(Trace, ProfileOnMeshObservesTheWorkload) {
  const traffic::DemandRows demand(traffic::Pattern::kTranspose, 4, 0.02);
  const auto profile = exp::profile_on_mesh(demand, 5000, 3);
  EXPECT_TRUE(profile.stats.drained);
  // The observed flows concentrate on transpose pairs.
  const test::DenseDemand observed(profile.observed);
  EXPECT_GT(observed.rate(1, 4), 0.0);  // (1,0) -> (0,1)
  EXPECT_DOUBLE_EQ(observed.rate(1, 2), 0.0);
}

}  // namespace
}  // namespace xlp
