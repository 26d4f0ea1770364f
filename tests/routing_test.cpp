#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "fault/model.hpp"
#include "route/deadlock.hpp"
#include "route/directional_paths.hpp"
#include "route/mesh_routing.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "util/check.hpp"

namespace xlp::route {
namespace {

using topo::RowLink;
using topo::RowTopology;

TEST(HopWeights, LinkCost) {
  const HopWeights w;  // Tr=3, Tl=1
  EXPECT_DOUBLE_EQ(w.link_cost(1), 4.0);
  EXPECT_DOUBLE_EQ(w.link_cost(7), 10.0);
}

TEST(DirectionalPaths, PlainRowCostsAndHops) {
  const RowTopology row(8);
  const DirectionalShortestPaths paths(row, HopWeights{});
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const int d = std::abs(i - j);
      EXPECT_EQ(paths.hops(i, j), d);
      EXPECT_DOUBLE_EQ(paths.cost(i, j), 4.0 * d);
    }
  }
}

TEST(DirectionalPaths, SelfPathsAreZero) {
  const DirectionalShortestPaths paths(RowTopology(5), HopWeights{});
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(paths.cost(i, i), 0.0);
    EXPECT_EQ(paths.hops(i, i), 0);
    EXPECT_THROW(paths.next_hop(i, i), PreconditionError);
  }
}

TEST(DirectionalPaths, ExpressLinkBeatsLocalHops) {
  const RowTopology row(8, {{0, 7}});
  const DirectionalShortestPaths paths(row, HopWeights{});
  // Direct end-to-end: one hop of length 7 = 3 + 7 = 10 (vs 7*4 = 28).
  EXPECT_DOUBLE_EQ(paths.cost(0, 7), 10.0);
  EXPECT_EQ(paths.hops(0, 7), 1);
  EXPECT_EQ(paths.next_hop(0, 7), 7);
  EXPECT_DOUBLE_EQ(paths.cost(7, 0), 10.0);  // bidirectional
  // Intermediate destinations cannot use it (no U-turns).
  EXPECT_DOUBLE_EQ(paths.cost(0, 6), 24.0);
  EXPECT_EQ(paths.hops(0, 6), 6);
}

TEST(DirectionalPaths, CostDecomposesAsRouterPlusWire) {
  // For any placement, cost = hops*Tr + distance*Tl along monotone paths.
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const RowTopology row = test::random_valid_row(8, 4, rng);
    const DirectionalShortestPaths paths(row, HopWeights{});
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        EXPECT_DOUBLE_EQ(paths.cost(i, j),
                         3.0 * paths.hops(i, j) + std::abs(i - j))
            << row.to_string();
  }
}

TEST(DirectionalPaths, MatchesReferenceFloydWarshall) {
  Rng rng(123);
  for (const auto& [n, limit] :
       {std::pair{4, 2}, std::pair{8, 4}, std::pair{16, 4},
        std::pair{8, 16}, std::pair{5, 3}}) {
    for (int trial = 0; trial < 40; ++trial) {
      const RowTopology row = test::random_valid_row(n, limit, rng);
      const DirectionalShortestPaths paths(row, HopWeights{});
      const test::ReferenceDirectionalPaths ref(row, HopWeights{});
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
          EXPECT_DOUBLE_EQ(paths.cost(i, j), ref.cost(i, j))
              << row.to_string() << " pair " << i << "->" << j;
    }
  }
}

using Adjacency = std::vector<std::vector<int>>;

// Checks `paths` against the reference over the same monotone adjacency:
// the same hop counts, -1 and an infinite cost where a direction is
// severed, the same costs, and next_hop(i, j) the farthest neighbor of i
// one hop closer to j, the longest first hop on some shortest path.
void expect_matches_reference(const DirectionalShortestPaths& paths,
                              const Adjacency& right, const Adjacency& left,
                              const std::string& label) {
  const int n = paths.size();
  const test::ReferenceDirectionalPaths ref(n, right, left, HopWeights{});
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const int h = ref.hops(i, j);
      ASSERT_EQ(paths.hops(i, j), h) << label << " pair " << i << "->" << j;
      EXPECT_EQ(paths.cost(i, j), ref.cost(i, j)) << label;
      EXPECT_EQ(paths.reachable(i, j), h >= 0) << label;
      if (i == j) continue;
      int farthest = -1;
      for (const int k : (j > i ? right : left)[static_cast<std::size_t>(i)])
        if ((j > i ? k <= j : k >= j) && h > 0 && ref.hops(k, j) == h - 1 &&
            (farthest < 0 || std::abs(k - i) > std::abs(farthest - i)))
          farthest = k;
      EXPECT_EQ(paths.next_hop(i, j), farthest)
          << label << " pair " << i << "->" << j;
    }
}

TEST(DirectionalPaths, NextHopIsTheLongestFirstHopOnRandomRows) {
  Rng rng(31);
  for (const auto& [n, limit] :
       {std::pair{2, 2}, std::pair{3, 2}, std::pair{5, 3}, std::pair{8, 4},
        std::pair{13, 2}, std::pair{16, 8}, std::pair{24, 4}}) {
    for (int trial = 0; trial < 20; ++trial) {
      const RowTopology row = test::random_valid_row(n, limit, rng);
      expect_matches_reference(DirectionalShortestPaths(row, HopWeights{}),
                               test::monotone_neighbors(row, true),
                               test::monotone_neighbors(row, false),
                               row.to_string());
    }
  }
}

TEST(DirectionalPaths, DegradedAdjacencyMatchesReference) {
  // The fault subsystem's rerouted tables: dead directed channels, local
  // ones included, filtered out of the monotone adjacency as
  // fault::reroute does, so some directions are severed.
  Rng rng(47);
  long severed = 0;
  for (const int n : {3, 6, 9, 16}) {
    for (int trial = 0; trial < 30; ++trial) {
      const RowTopology row = test::random_valid_row(n, 4, rng);
      fault::FaultSet faults;
      for (const topo::RowLink& link : row.all_links()) {
        if (rng.uniform01() >= 0.2) continue;
        const auto dirs = rng.uniform_below(3);  // both, forward, backward
        faults.add(fault::LinkFault{{fault::Dim::kRow, 0, link}, dirs != 2,
                                    dirs != 1});
      }
      Adjacency right(static_cast<std::size_t>(n));
      Adjacency left(static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        for (const int k : row.neighbors_right(r))
          if (!faults.kills(fault::Dim::kRow, 0, r, k))
            right[static_cast<std::size_t>(r)].push_back(k);
        for (const int k : row.neighbors_left(r))
          if (!faults.kills(fault::Dim::kRow, 0, r, k))
            left[static_cast<std::size_t>(r)].push_back(k);
      }
      const DirectionalShortestPaths paths(n, right, left, HopWeights{});
      expect_matches_reference(paths, right, left,
                               row.to_string() + " " + faults.to_string());
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) severed += paths.hops(i, j) < 0;
    }
  }
  EXPECT_GT(severed, 0) << "no trial severed a direction";
}

TEST(DirectionalPaths, PathsAreMonotoneAndConsistent) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const RowTopology row = test::random_valid_row(12, 4, rng);
    const DirectionalShortestPaths paths(row, HopWeights{});
    for (int i = 0; i < 12; ++i) {
      for (int j = 0; j < 12; ++j) {
        if (i == j) continue;
        const auto p = paths.path(i, j);
        ASSERT_GE(p.size(), 2u);
        EXPECT_EQ(p.front(), i);
        EXPECT_EQ(p.back(), j);
        EXPECT_EQ(static_cast<int>(p.size()) - 1, paths.hops(i, j));
        for (std::size_t k = 0; k + 1 < p.size(); ++k) {
          if (i < j)
            EXPECT_LT(p[k], p[k + 1]) << "not monotone rightward";
          else
            EXPECT_GT(p[k], p[k + 1]) << "not monotone leftward";
        }
      }
    }
  }
}

TEST(DirectionalPaths, PaperP84SolutionPathExample) {
  // Fig. 3(b): from router 1 (1-based) with dest column 7 (0-based 6),
  // the packet goes via router 4 (0-based 3) using the (1,3)+(3,7) links...
  // the 0-based placement is (1,3),(3,7); from router 0 to 6 the monotone
  // shortest path is 0 -> 1 -> 3 -> ... Verify the table agrees with the
  // hand-computed costs.
  const RowTopology row(8, {{1, 3}, {3, 7}});
  const DirectionalShortestPaths paths(row, HopWeights{});
  // 0 -> 6: 0-1 (local), 1-3 (express len 2), 3-4,4-5,5-6 locals:
  // hops 5, distance 6 -> 21. Alternative all-local: 6 hops -> 24.
  EXPECT_EQ(paths.hops(0, 6), 5);
  EXPECT_DOUBLE_EQ(paths.cost(0, 6), 21.0);
  // 0 -> 7: 0-1, 1-3, 3-7: hops 3, distance 7 -> 16.
  EXPECT_EQ(paths.hops(0, 7), 3);
  EXPECT_DOUBLE_EQ(paths.cost(0, 7), 16.0);
  EXPECT_EQ(paths.next_hop(0, 7), 1);
  EXPECT_EQ(paths.next_hop(1, 7), 3);
  EXPECT_EQ(paths.next_hop(3, 7), 7);
}

TEST(DirectionalPaths, AverageCostOfPlainRow) {
  const DirectionalShortestPaths paths(RowTopology(4), HopWeights{});
  // Ordered pairs distances: 1 (x6), 2 (x4), 3 (x2) -> avg dist 5/3.
  EXPECT_NEAR(paths.average_cost(), 4.0 * 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(paths.average_hops(), 5.0 / 3.0, 1e-12);
}

TEST(DirectionalPaths, MaxCost) {
  const DirectionalShortestPaths paths(RowTopology(8), HopWeights{});
  EXPECT_DOUBLE_EQ(paths.max_cost(), 28.0);
}

TEST(DirectionalPaths, AddingLinksNeverHurts) {
  // Monotonicity property the branch-and-bound pruning relies on.
  Rng rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    RowTopology row = test::random_valid_row(10, 4, rng, 0.3);
    const DirectionalShortestPaths before(row, HopWeights{});
    const int i = static_cast<int>(rng.uniform_below(8));
    const int j = i + 2 + static_cast<int>(rng.uniform_below(10 - i - 2));
    row.add_express({i, j});
    const DirectionalShortestPaths after(row, HopWeights{});
    for (int a = 0; a < 10; ++a)
      for (int b = 0; b < 10; ++b)
        EXPECT_LE(after.cost(a, b), before.cost(a, b) + 1e-12);
  }
}

// --------------------------------------------------------------------------
// 2D routing

TEST(MeshRouting, XYOrderOnPlainMesh) {
  const topo::ExpressMesh mesh = topo::make_mesh(4);
  const MeshRouting routing(mesh, HopWeights{});
  // From (0,0)=0 to (2,3)=14: x first to 2, then down column 2.
  const auto path = routing.path(0, 14);
  const std::vector<int> expected{0, 1, 2, 6, 10, 14};
  EXPECT_EQ(path, expected);
  EXPECT_EQ(routing.hops(0, 14), 5);
  EXPECT_DOUBLE_EQ(routing.head_cost(0, 14), 5 * 4.0);
}

TEST(MeshRouting, NextHopRejectsSelf) {
  const topo::ExpressMesh mesh = topo::make_mesh(4);
  const MeshRouting routing(mesh, HopWeights{});
  EXPECT_THROW(routing.next_hop(3, 3), PreconditionError);
}

TEST(MeshRouting, ExpressRowsAndColumnsCompose) {
  const RowTopology row(8, {{1, 3}, {3, 7}});
  const topo::ExpressMesh mesh(row, 4, 64);
  const MeshRouting routing(mesh, HopWeights{});
  // (0,0) -> (7,7): row 0 from x=0 to x=7 (3 hops), then column 7 from
  // y=0 to y=7 (3 hops).
  EXPECT_EQ(routing.hops(0, 63), 6);
  EXPECT_DOUBLE_EQ(routing.head_cost(0, 63), 2 * 16.0);
  const auto path = routing.path(0, 63);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 63);
  // The turning point is (7, 0) = node 7.
  EXPECT_NE(std::find(path.begin(), path.end(), 7), path.end());
}

TEST(MeshRouting, EqualLinesShareOneTable) {
  // A homogeneous square design repeats one placement in every row and
  // column: one table serves them all. A heterogeneous design keeps one
  // table per distinct line.
  const RowTopology row(8, {{1, 3}, {3, 7}});
  const MeshRouting homogeneous(topo::ExpressMesh(row, 4, 64), HopWeights{});
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(&homogeneous.row_paths(i), &homogeneous.row_paths(0));
    EXPECT_EQ(&homogeneous.col_paths(i), &homogeneous.row_paths(0));
  }

  std::vector<RowTopology> rows(8, RowTopology(8));
  rows[3] = row;
  const MeshRouting mixed(
      topo::ExpressMesh(rows, std::vector<RowTopology>(8, row), 4, 64),
      HopWeights{});
  EXPECT_EQ(&mixed.row_paths(1), &mixed.row_paths(0));
  EXPECT_NE(&mixed.row_paths(3), &mixed.row_paths(0));
  EXPECT_EQ(&mixed.col_paths(5), &mixed.row_paths(3));
  EXPECT_EQ(mixed.row_paths(3).cost(0, 7), homogeneous.row_paths(0).cost(0, 7));
  EXPECT_GT(mixed.row_paths(0).cost(0, 7), mixed.row_paths(3).cost(0, 7));
}

TEST(MeshRouting, HopsMatchPathLengthEverywhere) {
  Rng rng(5);
  const RowTopology row = test::random_valid_row(8, 4, rng);
  const topo::ExpressMesh mesh(row, 4, 64);
  const MeshRouting routing(mesh, HopWeights{});
  for (int s = 0; s < 64; s += 7) {
    for (int d = 0; d < 64; d += 5) {
      if (s == d) continue;
      EXPECT_EQ(static_cast<int>(routing.path(s, d).size()) - 1,
                routing.hops(s, d));
    }
  }
}

// --------------------------------------------------------------------------
// Deadlock freedom

class DeadlockFreedom
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DeadlockFreedom, RandomExpressDesignsAreAcyclic) {
  const auto [n, limit, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const RowTopology row = test::random_valid_row(n, limit, rng);
  const topo::ExpressMesh mesh(row, limit, 64);
  const MeshRouting routing(mesh, HopWeights{});
  const ChannelDependencyGraph cdg(mesh, routing);
  EXPECT_GT(cdg.channel_count(), 0u);
  EXPECT_FALSE(cdg.has_cycle()) << row.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DeadlockFreedom,
    ::testing::Combine(::testing::Values(4, 6, 8), ::testing::Values(2, 4),
                       ::testing::Values(1, 2, 3)));

TEST(DeadlockFreedomFixed, MeshHfbAndButterfly) {
  for (const auto& design :
       {topo::make_mesh(8), topo::make_hfb(8), topo::make_flattened_butterfly(4)}) {
    const MeshRouting routing(design, HopWeights{});
    const ChannelDependencyGraph cdg(design, routing);
    EXPECT_FALSE(cdg.has_cycle());
    EXPECT_GT(cdg.dependency_count(), 0u);
  }
}

TEST(DeadlockCdg, MeshChannelCount) {
  const topo::ExpressMesh mesh = topo::make_mesh(4);
  const MeshRouting routing(mesh, HopWeights{});
  const ChannelDependencyGraph cdg(mesh, routing);
  // 4 rows * 3 links * 2 directions + same for columns = 48.
  EXPECT_EQ(cdg.channel_count(), 48u);
}

}  // namespace
}  // namespace xlp::route
