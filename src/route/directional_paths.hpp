#pragma once

#include <limits>
#include <vector>

#include "topo/row_topology.hpp"

namespace xlp::route {

/// Per-hop cost model for within-row paths: traversing a link (a,b) costs
/// `router_cycles + |b-a| * link_cycles_per_unit` (one router pipeline plus
/// a repeated/pipelined wire of |b-a| unit segments, Section 2.2).
struct HopWeights {
  double router_cycles = 3.0;        // Tr: canonical 3-stage router
  double link_cycles_per_unit = 1.0;  // Tl: one cycle per unit-length segment

  [[nodiscard]] double link_cost(int length) const noexcept {
    return router_cycles + link_cycles_per_unit * length;
  }

  /// Head cost of a monotone path of `hops` links between routers
  /// `distance` apart (Eq. 1, H·Tr + D·Tl): a path that never turns back
  /// covers exactly `distance` units of wire, so its hop count fixes its
  /// cost. Infinite when `hops` is negative (no path).
  [[nodiscard]] double path_cost(int distance, int hops) const noexcept {
    if (hops < 0) return std::numeric_limits<double>::infinity();
    return link_cycles_per_unit * distance + router_cycles * hops;
  }
};

/// Directional all-pairs shortest paths within one row under the paper's
/// deadlock-free routing (Section 4.5.1): packets travel monotonically, so
/// a left-to-right packet may only use links in the rightward direction and
/// never overshoots its target ("no U-turns"). Equivalent to the paper's two
/// Floyd–Warshall passes with the opposite direction's edges set to infinite
/// weight; implemented as a DP since the monotone subgraph is a DAG.
///
/// The one table is `hops(i,j)`, the fewest links from i to j. Every
/// monotone path from i to j covers |j-i| units of wire, so the cheapest
/// path is the one with the fewest hops, and `cost(i,j)` follows from the
/// hop count (HopWeights::path_cost). `next_hop(i,j)` is the router after
/// `i` on the selected path (deterministic; this is what the per-router
/// lookup tables of Section 4.5.2 store): the farthest neighbor one hop
/// closer to j, i.e. the longest first hop among the shortest paths.
class DirectionalShortestPaths {
 public:
  DirectionalShortestPaths(const topo::RowTopology& row, HopWeights weights);

  /// Shortest paths over an explicit monotone adjacency: `right[r]` /
  /// `left[r]` are the surviving neighbors of router r in each direction.
  /// Used by the fault subsystem to route around dead links, so unlike the
  /// RowTopology constructor this one tolerates severed directions: an
  /// unreachable pair keeps infinite cost, hops() == -1 and
  /// next_hop() == -1 — check reachable() before following the table.
  DirectionalShortestPaths(int n, const std::vector<std::vector<int>>& right,
                           const std::vector<std::vector<int>>& left,
                           HopWeights weights);

  [[nodiscard]] int size() const noexcept { return n_; }

  /// True when the monotone subgraph still has a path from i to j (always
  /// true for tables built from a RowTopology, whose local links guarantee
  /// connectivity).
  [[nodiscard]] bool reachable(int i, int j) const;

  /// Head cost of the path from i to j; 0 when i == j, infinite when
  /// unreachable.
  [[nodiscard]] double cost(int i, int j) const;
  /// Links traversed from i to j; 0 when i == j, -1 when unreachable.
  [[nodiscard]] int hops(int i, int j) const;
  /// Next router after i on the path to j; j itself when directly linked,
  /// -1 when unreachable. Requires i != j.
  [[nodiscard]] int next_hop(int i, int j) const;

  /// Row i of the hop table: hops(i, j) for every j in [0, size()), for
  /// loops that read a whole row.
  [[nodiscard]] const int* hops_row(int i) const;

  /// Full router sequence i, ..., j (inclusive). Requires reachable(i, j).
  [[nodiscard]] std::vector<int> path(int i, int j) const;

  /// Average cost over all ordered pairs i != j under uniform pairwise
  /// traffic (core::RowObjective scores placements from hops_row()). The
  /// averages below are only meaningful when every pair is reachable
  /// (infinities propagate).
  [[nodiscard]] double average_cost() const;

  /// Hop count summed over all ordered pairs i != j.
  [[nodiscard]] long total_hops() const;

  /// Average hop count over all ordered pairs i != j.
  [[nodiscard]] double average_hops() const;

  /// Largest cost over all pairs (worst-case zero-load row segment).
  [[nodiscard]] double max_cost() const;

 private:
  [[nodiscard]] std::size_t idx(int i, int j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(j);
  }
  [[nodiscard]] double cost_at(int i, int j) const {
    return weights_.path_cost(i < j ? j - i : i - j, hops_[idx(i, j)]);
  }
  /// Sizes the table: 0 on the diagonal, n ("no path yet") elsewhere.
  void start_table();
  /// The fewest-hops DP step for a link from router i to k > i, and for
  /// one from router j to k < j.
  void relax_right(int i, int k);
  void relax_left(int j, int k);

  int n_;
  HopWeights weights_;
  std::vector<int> hops_;
};

}  // namespace xlp::route
