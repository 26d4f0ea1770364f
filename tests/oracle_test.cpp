// Zero-load oracle: the simulator must route exactly the tables the
// optimizer scores. For every ordered pair of a design, one packet alone in
// the network takes Tr·(hops+1) + Manhattan distance + flits cycles from
// creation to tail ejection, with hops read from route::MeshRouting under
// the packet's orientation.
//
// Separability oracle: application-specific placement solves one weighted
// 1D problem per row and per column, so its per-line exact optima must
// together be the best of every 2D design, found here by exhaustive search.
//
// `ctest -L oracle` runs this suite; the asan-ubsan CI lane runs it again
// with XLP_CHECK_SIM=1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/app_specific.hpp"
#include "latency/model.hpp"
#include "latency/packet_mix.hpp"
#include "route/mesh_routing.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "topo/connection_matrix.hpp"
#include "topo/express_mesh.hpp"
#include "traffic/demand.hpp"
#include "traffic/flows.hpp"
#include "util/rng.hpp"

namespace xlp::sim {
namespace {

/// Per-row and per-column placements that differ from one another, so XY
/// (source row, destination column) and YX (source column, destination
/// row) take different routes for some pairs.
topo::ExpressMesh heterogeneous_design() {
  Rng rng(29);
  std::vector<topo::RowTopology> rows;
  std::vector<topo::RowTopology> cols;
  for (int y = 0; y < 8; ++y)
    rows.push_back(test::random_valid_row(8, 4, rng));
  for (int x = 0; x < 8; ++x)
    cols.push_back(test::random_valid_row(8, 4, rng));
  return topo::ExpressMesh(std::move(rows), std::move(cols), 4, 64);
}

topo::ExpressMesh design_named(const std::string& name) {
  Rng rng(17);
  if (name == "mesh") return topo::make_mesh(8);
  if (name == "hfb") return topo::make_hfb(8);
  if (name == "random")
    return topo::make_design(test::random_valid_row(8, 4, rng), 4);
  if (name == "rect8x4") {
    const topo::RowTopology row = test::random_valid_row(8, 4, rng);
    const topo::RowTopology col = test::random_valid_row(4, 2, rng);
    return topo::make_rect_design(row, col, 4);
  }
  return heterogeneous_design();
}

/// One packet per ordered pair, each created only after the previous one
/// has ejected and its credits have returned, in one run. Returns the
/// number of pairs whose hop count differs between XY and YX.
int check_every_pair(const topo::ExpressMesh& design, RoutingMode mode) {
  const Network network(design, route::HopWeights{});
  const route::MeshRouting& routing = network.routing();
  const int w = design.width();
  const int nodes = design.node_count();
  SimConfig config;
  config.routing = mode;
  config.warmup_cycles = 0;
  config.drain_cycles = 1000;
  const auto orientation = mode == RoutingMode::kYX
                               ? route::Orientation::kYXFirst
                               : route::Orientation::kXYFirst;
  const auto expected = [&](int src, int dst, int bits,
                            route::Orientation o) {
    const int manhattan =
        std::abs(src % w - dst % w) + std::abs(src / w - dst / w);
    return static_cast<long>(config.pipeline_stages) *
               (routing.hops(src, dst, o) + 1) +
           manhattan + latency::PacketMix::flits_for(bits, design.flit_bits());
  };

  struct Sent {
    int src, dst, bits;
    long created, latency;
  };
  std::vector<Sent> sent;
  long at = 10;
  for (int src = 0; src < nodes; ++src)
    for (int dst = 0; dst < nodes; ++dst) {
      if (src == dst) continue;
      const int bits = (src + dst) % 2 == 0 ? 512 : 128;
      sent.push_back({src, dst, bits, at,
                      expected(src, dst, bits, orientation)});
      at += sent.back().latency + w + design.height();
    }
  config.measure_cycles = at;
  Simulator sim(network, config);
  for (const Sent& s : sent)
    sim.schedule_packet(s.src, s.dst, s.bits, s.created);
  const SimStats stats = sim.run();
  EXPECT_EQ(stats.packets_finished, static_cast<long>(sent.size()));

  int orientation_sensitive = 0;
  for (std::size_t id = 0; id < sent.size(); ++id) {
    const Sent& s = sent[id];
    EXPECT_EQ(sim.packet_latency(static_cast<long>(id)), s.latency)
        << s.src << " -> " << s.dst;
    if (routing.hops(s.src, s.dst, route::Orientation::kXYFirst) !=
        routing.hops(s.src, s.dst, route::Orientation::kYXFirst))
      ++orientation_sensitive;
  }
  return orientation_sensitive;
}

class ZeroLoadOracle
    : public ::testing::TestWithParam<std::tuple<std::string, RoutingMode>> {};

TEST_P(ZeroLoadOracle, EveryPairTakesTheAnalyticLatency) {
  const auto& [name, mode] = GetParam();
  const int sensitive = check_every_pair(design_named(name), mode);
  // The heterogeneous design must tell the orientations apart, or a
  // simulator that routed YX packets XY would still pass.
  if (name == "hetero") {
    EXPECT_GT(sensitive, 0);
  }
}

std::string case_name(
    const ::testing::TestParamInfo<ZeroLoadOracle::ParamType>& param) {
  return std::get<0>(param.param) +
         (std::get<1>(param.param) == RoutingMode::kXY ? "_xy" : "_yx");
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ZeroLoadOracle,
    ::testing::Combine(::testing::Values("mesh", "hfb", "random", "rect8x4",
                                         "hetero"),
                       ::testing::Values(RoutingMode::kXY, RoutingMode::kYX)),
    case_name);

}  // namespace
}  // namespace xlp::sim

namespace xlp::core {
namespace {

constexpr int kSide = 4;
constexpr int kLimit = 2;

/// The lowest demand-weighted zero-load latency of any 4x4 design at C = 2
/// whose 8 lines each take one connection-matrix decode: 4^8 designs, each
/// scored by the 2D model with no per-line decomposition.
double exhaustive_best(const latency::LineDemand& demand) {
  // P(4, 2)'s matrix has one layer over the two interior routers: its four
  // settings decode to no link, (0,2), (1,3) and (0,3).
  topo::ConnectionMatrix matrix(kSide, kLimit);
  std::vector<topo::RowTopology> decodes;
  for (int bits = 0; bits < 1 << matrix.bit_count(); ++bits) {
    for (int i = 0; i < matrix.bit_count(); ++i)
      matrix.set_bit(0, i, (bits >> i & 1) != 0);
    decodes.push_back(matrix.decode());
  }
  const auto choices = static_cast<long>(decodes.size());
  long designs = 1;
  for (int line = 0; line < 2 * kSide; ++line) designs *= choices;

  double best = std::numeric_limits<double>::infinity();
  for (long code = 0; code < designs; ++code) {
    std::vector<topo::RowTopology> rows;
    std::vector<topo::RowTopology> cols;
    long rest = code;
    for (int line = 0; line < 2 * kSide; ++line, rest /= choices)
      (line < kSide ? rows : cols)
          .push_back(decodes[static_cast<std::size_t>(rest % choices)]);
    const topo::ExpressMesh design(std::move(rows), std::move(cols), kLimit,
                                   topo::flit_bits_for_limit(kLimit));
    best = std::min(best, latency::MeshLatencyModel(
                              design, latency::LatencyParams::zero_load())
                              .weighted_average(demand)
                              .total());
  }
  return best;
}

TEST(SeparabilityOracle, PerLineExactSolvesMatchExhaustive2DSearch) {
  // A skewed gamma: light random rates under three heavy flows.
  Rng rng(43);
  constexpr int nodes = kSide * kSide;
  std::vector<traffic::Flow> flows;
  for (int src = 0; src < nodes; ++src)
    for (int dst = 0; dst < nodes; ++dst)
      if (src != dst) flows.push_back({src, dst, 0.01 * rng.uniform01()});
  flows.push_back({0, nodes - 1, 1.0});
  flows.push_back({kSide - 1, nodes - kSide, 0.6});
  flows.push_back({1, 2 * kSide + 3, 0.3});
  const traffic::Flows skewed(kSide, kSide, std::move(flows));
  const traffic::DemandRows canneal(traffic::parsec_model("canneal"), kSide);

  SweepOptions options;
  options.solver = Solver::kExact;
  options.latency = latency::LatencyParams::zero_load();
  for (const latency::LineDemand* demand :
       std::initializer_list<const latency::LineDemand*>{&skewed, &canneal}) {
    Rng unused(1);
    const AppSpecificResult app =
        solve_app_specific_for_limit(*demand, kLimit, options, unused);
    const double best = exhaustive_best(*demand);
    EXPECT_NEAR(app.breakdown.total(), best, 1e-12 * best);
  }
}

}  // namespace
}  // namespace xlp::core
