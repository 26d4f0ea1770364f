// Cross-cutting invariants exercised over broad parameter sweeps: the
// simulator under every routing mode and topology class, exhaustive
// connection-matrix enumeration on small problems, BFS cross-checks of the
// routing tables, and differential checks of the analytic model.

#include <gtest/gtest.h>

#include <queue>
#include <tuple>

#include "exp/scenarios.hpp"
#include "latency/model.hpp"
#include "power/model.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "traffic/flows.hpp"
#include "util/check.hpp"

namespace xlp {
namespace {

// ---------------------------------------------------------------------------
// Simulator invariants across modes and topologies

struct SimCase {
  const char* design_name;
  traffic::Pattern pattern;
  double load;
  sim::RoutingMode routing;
  bool vec;
};

topo::ExpressMesh design_by_name(const std::string& name) {
  if (name == "mesh") return topo::make_mesh(8);
  if (name == "hfb") return topo::make_hfb(8);
  Rng rng(99);
  return topo::make_design(test::random_valid_row(8, 4, rng), 4);
}

class SimInvariants
    : public ::testing::TestWithParam<
          std::tuple<const char*, traffic::Pattern, sim::RoutingMode, bool>> {
};

TEST_P(SimInvariants, HoldAtLowLoad) {
  const auto [name, pattern, routing, vec] = GetParam();
  const topo::ExpressMesh design = design_by_name(name);
  const traffic::DemandRows demand(pattern, 8, 0.015);

  sim::SimConfig config;
  config.routing = routing;
  config.virtual_express_bypass = vec;
  config.warmup_cycles = 200;
  config.measure_cycles = 2500;
  config.drain_cycles = 5000;
  const auto stats = exp::simulate_design(design, demand, config);

  // Conservation and liveness.
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.packets_finished, stats.packets_offered);
  EXPECT_GT(stats.packets_finished, 50);

  // Latency floor: nothing beats the fastest possible single-hop packet.
  EXPECT_GE(stats.avg_latency, 7.0);
  EXPECT_LE(stats.p50_latency, stats.avg_latency * 1.5);

  // Activity consistency: every flit read was written; channel flits are
  // the non-ejection grants.
  long channel_total = 0;
  for (const long f : stats.channel_flits) channel_total += f;
  EXPECT_LE(channel_total, stats.activity.crossbar_traversals);
  EXPECT_GT(stats.activity.buffer_writes, 0);
  EXPECT_NEAR(static_cast<double>(stats.activity.buffer_reads),
              static_cast<double>(stats.activity.buffer_writes),
              0.1 * stats.activity.buffer_writes);

  // Hops bounded by the (row + column) diameter.
  EXPECT_LE(stats.avg_hops, 14.0);
  EXPECT_GE(stats.avg_hops, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimInvariants,
    ::testing::Combine(
        ::testing::Values("mesh", "hfb", "random"),
        ::testing::Values(traffic::Pattern::kUniformRandom,
                          traffic::Pattern::kTranspose,
                          traffic::Pattern::kTornado),
        ::testing::Values(sim::RoutingMode::kXY, sim::RoutingMode::kYX,
                          sim::RoutingMode::kO1Turn),
        ::testing::Values(false, true)));

TEST(SimDeterminism, SameSeedSameStats) {
  const auto design = topo::make_hfb(8);
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8, 0.03);
  sim::SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 2000;
  config.seed = 77;
  const auto a = exp::simulate_design(design, demand, config);
  const auto b = exp::simulate_design(design, demand, config);
  EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.packets_offered, b.packets_offered);
  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes);

  config.seed = 78;
  const auto c = exp::simulate_design(design, demand, config);
  EXPECT_NE(a.packets_offered, c.packets_offered);
}

TEST(SimConfidence, IntervalShrinksWithMoreCycles) {
  const auto design = topo::make_mesh(8);
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8, 0.05);
  sim::SimConfig small;
  small.warmup_cycles = 200;
  small.measure_cycles = 2000;
  sim::SimConfig large = small;
  large.measure_cycles = 16000;
  large.drain_cycles = 30000;
  const auto a = exp::simulate_design(design, demand, small);
  const auto b = exp::simulate_design(design, demand, large);
  EXPECT_GT(a.ci95_latency, 0.0);
  EXPECT_GT(b.ci95_latency, 0.0);
  EXPECT_LT(b.ci95_latency, a.ci95_latency);
  // The long run's mean should sit inside (a generous multiple of) the
  // short run's interval.
  EXPECT_NEAR(a.avg_latency, b.avg_latency, 4.0 * a.ci95_latency + 0.5);
}

// ---------------------------------------------------------------------------
// Exhaustive small-space checks

TEST(Exhaustive, EveryMatrixDecodesValidAndRoundTrips) {
  for (const auto& [n, limit] :
       {std::pair{4, 2}, std::pair{4, 3}, std::pair{5, 2}, std::pair{6, 2},
        std::pair{5, 3}}) {
    topo::ConnectionMatrix m(n, limit);
    const int bits = m.bit_count();
    ASSERT_LE(bits, 12);
    for (long code = 0; code < (1L << bits); ++code) {
      for (int b = 0; b < bits; ++b)
        m.set_bit(b / m.interior(), b % m.interior(), (code >> b) & 1);
      const topo::RowTopology row = m.decode();
      ASSERT_TRUE(row.fits_link_limit(limit))
          << "n=" << n << " C=" << limit << " code=" << code;
      const auto re = topo::ConnectionMatrix::encode(row, limit);
      ASSERT_EQ(re.decode(), row);
    }
  }
}

TEST(Exhaustive, DistinctTopologyCountMatchesHandCount) {
  // P̄(4,2): express candidates (0,2),(1,3),(0,3); capacity 1 express per
  // cut. Valid sets: {}, {(0,2)}, {(1,3)}, {(0,3)}, {(0,2),(1,3)}? cuts of
  // (0,2)={0,1}, (1,3)={1,2} overlap at cut 1 -> invalid. So 4 distinct
  // placements. The 2^2 = 4 matrices must cover exactly these.
  topo::ConnectionMatrix m(4, 2);
  std::set<std::string> seen;
  for (int code = 0; code < 4; ++code) {
    m.set_bit(0, 0, code & 1);
    m.set_bit(0, 1, (code >> 1) & 1);
    seen.insert(m.decode().to_string());
  }
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count("4:[]"));
  EXPECT_TRUE(seen.count("4:[(0,2)]"));
  EXPECT_TRUE(seen.count("4:[(1,3)]"));
  EXPECT_TRUE(seen.count("4:[(0,3)]"));
}

// ---------------------------------------------------------------------------
// BFS cross-check of the directional shortest paths

int bfs_min_hops(const topo::RowTopology& row, int from, int to) {
  // Monotone graph: only edges in the direction of travel.
  const int n = row.size();
  std::vector<int> dist(static_cast<std::size_t>(n), -1);
  std::queue<int> queue;
  dist[static_cast<std::size_t>(from)] = 0;
  queue.push(from);
  while (!queue.empty()) {
    const int cur = queue.front();
    queue.pop();
    const auto neighbors =
        from < to ? row.neighbors_right(cur) : row.neighbors_left(cur);
    for (const int next : neighbors) {
      const bool in_range = from < to ? next <= to : next >= to;
      if (!in_range || dist[static_cast<std::size_t>(next)] >= 0) continue;
      dist[static_cast<std::size_t>(next)] =
          dist[static_cast<std::size_t>(cur)] + 1;
      queue.push(next);
    }
  }
  return dist[static_cast<std::size_t>(to)];
}

TEST(BfsCrossCheck, HopsMatchBfsOnMonotoneGraph) {
  // With Tr > 0 and fixed Manhattan distance, min cost == min hops; BFS on
  // the monotone graph is an independent oracle.
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const topo::RowTopology row = test::random_valid_row(10, 4, rng);
    const route::DirectionalShortestPaths paths(row, route::HopWeights{});
    for (int i = 0; i < 10; ++i)
      for (int j = 0; j < 10; ++j) {
        if (i == j) continue;
        EXPECT_EQ(paths.hops(i, j), bfs_min_hops(row, i, j))
            << row.to_string() << " " << i << "->" << j;
      }
  }
}

// ---------------------------------------------------------------------------
// Differential checks of the analytic model

TEST(Differential, WeightedAverageMatchesBruteForce) {
  Rng rng(23);
  const topo::RowTopology row = test::random_valid_row(6, 3, rng);
  const topo::ExpressMesh mesh(row, 3, 64);
  const latency::MeshLatencyModel model(mesh,
                                        latency::LatencyParams::zero_load());
  const int nodes = mesh.node_count();
  std::vector<traffic::Flow> flows;
  for (int s = 0; s < nodes; ++s)
    for (int d = 0; d < nodes; ++d)
      if (s != d) flows.push_back({s, d, rng.uniform01() * 0.01});
  const traffic::Flows demand(6, 6, std::move(flows));

  double num = 0.0, den = 0.0;
  for (const traffic::Flow& f : demand.entries()) {
    num += f.rate * model.pair_head_latency(f.src, f.dst);
    den += f.rate;
  }
  EXPECT_NEAR(model.weighted_average(demand).head, num / den, 1e-9);
}

TEST(Differential, RowBlocksMatchFlowEnumeration) {
  Rng rng(29);
  std::vector<traffic::Flow> flows;
  for (int s = 0; s < 16; ++s)
    for (int d = 0; d < 16; ++d)
      if (s != d) flows.push_back({s, d, rng.uniform01() * 0.01});
  const traffic::Flows demand(4, 4, std::move(flows));

  std::vector<double> w(16);
  for (int y = 0; y < 4; ++y) {
    demand.row_block(y, w);
    for (int a = 0; a < 4; ++a)
      for (int b = 0; b < 4; ++b) {
        if (a == b) continue;
        double expected = 0.0;
        for (const traffic::Flow& f : demand.entries())
          if (f.src == y * 4 + a && f.dst % 4 == b) expected += f.rate;
        EXPECT_NEAR(w[static_cast<std::size_t>(a) * 4 + b], expected, 1e-12);
      }
  }
}

// ---------------------------------------------------------------------------
// Power model monotonicity

TEST(PowerMonotonicity, MoreActivityMoreDynamic) {
  const auto mesh = topo::make_mesh(8);
  sim::ActivityCounters low, high;
  low.buffer_writes = low.buffer_reads = low.crossbar_traversals = 100;
  low.link_flit_units = 100;
  low.measured_cycles = 1000;
  low.flit_bits = 256;
  high = low;
  high.buffer_writes *= 3;
  const auto p_low = power::evaluate_power(mesh, low, 40960);
  const auto p_high = power::evaluate_power(mesh, high, 40960);
  EXPECT_GT(p_high.dynamic_buffer_w, p_low.dynamic_buffer_w);
  EXPECT_DOUBLE_EQ(p_high.dynamic_link_w, p_low.dynamic_link_w);
}

TEST(PowerMonotonicity, CliqueHasMoreCrossbarLeakageThanMeshAtSameWidth) {
  // At *equal* width, more ports must mean more b*k^2 leakage; the paper's
  // argument is that express designs do not keep the same width.
  const topo::ExpressMesh mesh(topo::RowTopology(8), 4, 64);
  const topo::ExpressMesh clique(topo::make_flattened_butterfly_row(8), 16,
                                 64);
  sim::ActivityCounters idle;
  idle.measured_cycles = 1;
  idle.flit_bits = 64;
  const auto p_mesh = power::evaluate_power(mesh, idle, 40960);
  const auto p_clique = power::evaluate_power(clique, idle, 40960);
  EXPECT_GT(p_clique.static_crossbar_w, p_mesh.static_crossbar_w);
  EXPECT_DOUBLE_EQ(p_clique.static_buffer_w, p_mesh.static_buffer_w);
}

}  // namespace
}  // namespace xlp
