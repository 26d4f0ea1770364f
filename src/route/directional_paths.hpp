#pragma once

#include <vector>

#include "topo/row_topology.hpp"

namespace xlp::route {

namespace detail {

/// One relaxation step of the monotone shortest-path DP: candidate path
/// from `i` through neighbor `via` with tail cost/hops `base_cost` /
/// `base_hops`, against the incumbent cell (cur_cost, cur_hops, cur_next).
/// Tie-break: lower cost, then fewer hops, then the longest first hop (take
/// the express link as early as possible — deterministic and keeps packets
/// off local links that shorter-haul traffic needs).
///
/// Shared by the full DP (DirectionalShortestPaths) and the incremental
/// re-evaluation in core::DeltaRowObjective so the two can never disagree
/// on a cell — the delta evaluator's exactness contract depends on it.
template <typename Weights>
inline void relax_monotone(const Weights& weights, int i, int via,
                           double base_cost, int base_hops, double& cur_cost,
                           int& cur_hops, int& cur_next) {
  const int len = via > i ? via - i : i - via;
  const double c = weights.link_cost(len) + base_cost;
  const int h = 1 + base_hops;
  const int cur_len = cur_next > i ? cur_next - i : i - cur_next;
  const bool better =
      c < cur_cost - 1e-12 ||
      (c < cur_cost + 1e-12 &&
       (h < cur_hops || (h == cur_hops && cur_next >= 0 && len > cur_len)));
  if (cur_next < 0 || better) {
    cur_cost = c;
    cur_hops = h;
    cur_next = via;
  }
}

}  // namespace detail

/// Per-hop cost model for within-row paths: traversing a link (a,b) costs
/// `router_cycles + |b-a| * link_cycles_per_unit` (one router pipeline plus
/// a repeated/pipelined wire of |b-a| unit segments, Section 2.2).
struct HopWeights {
  double router_cycles = 3.0;        // Tr: canonical 3-stage router
  double link_cycles_per_unit = 1.0;  // Tl: one cycle per unit-length segment

  [[nodiscard]] double link_cost(int length) const noexcept {
    return router_cycles + link_cycles_per_unit * length;
  }
};

/// Directional all-pairs shortest paths within one row under the paper's
/// deadlock-free routing (Section 4.5.1): packets travel monotonically, so
/// a left-to-right packet may only use links in the rightward direction and
/// never overshoots its target ("no U-turns"). Equivalent to the paper's two
/// Floyd–Warshall passes with the opposite direction's edges set to infinite
/// weight; implemented as a DP over increasing span since the monotone
/// subgraph is a DAG.
///
/// `cost(i,j)` is the head-flit cost of the row segment, `hops(i,j)` the
/// number of links traversed, and `next_hop(i,j)` the router after `i` on
/// the selected path (deterministic; this is what the per-router lookup
/// tables of Section 4.5.2 store).
class DirectionalShortestPaths {
 public:
  DirectionalShortestPaths(const topo::RowTopology& row, HopWeights weights);

  /// Shortest paths over an explicit monotone adjacency: `right[r]` /
  /// `left[r]` are the sorted surviving neighbors of router r in each
  /// direction. Used by the fault subsystem to route around dead links, so
  /// unlike the RowTopology constructor this one tolerates severed
  /// directions: an unreachable pair keeps infinite cost, hops() == -1 and
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

  /// Row i of the cost and hop tables: cost(i, j) and hops(i, j) for every
  /// j in [0, size()), for loops that read a whole row.
  [[nodiscard]] const double* cost_row(int i) const;
  [[nodiscard]] const int* hops_row(int i) const;

  /// Full router sequence i, ..., j (inclusive). Requires reachable(i, j).
  [[nodiscard]] std::vector<int> path(int i, int j) const;

  /// Average cost over all ordered pairs i != j: the objective that
  /// P̄(n, C) minimizes (uniform pairwise traffic). The averages below are
  /// only meaningful when every pair is reachable (infinities propagate).
  [[nodiscard]] double average_cost() const;

  /// Average over ordered pairs weighted by `weight[i][j]` (flattened i*n+j);
  /// the application-specific objective of Section 5.6.4. Weights must be
  /// non-negative with a positive sum.
  [[nodiscard]] double weighted_average_cost(
      const std::vector<double>& weight) const;

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
  void compute(const std::vector<std::vector<int>>& right,
               const std::vector<std::vector<int>>& left);

  int n_;
  HopWeights weights_;
  std::vector<double> cost_;
  std::vector<int> hops_;
  std::vector<int> next_;
};

}  // namespace xlp::route
