#pragma once

#include <memory>
#include <vector>

#include "route/directional_paths.hpp"
#include "topo/express_mesh.hpp"

namespace xlp::route {

/// Table-driven dimension-order routing over an ExpressMesh (Section 4.5):
/// a packet first travels within the source row to the turning point (the
/// router sharing the source's row and the destination's column), then within
/// the destination column. Each dimension segment follows the precomputed
/// directional shortest paths, so the whole route is deterministic, minimal
/// under the no-U-turn rule, and deadlock-free.
/// Which dimension a packet finishes first. XY (the paper's default) routes
/// the row segment first; YX the column segment. O1TURN-style oblivious
/// routing picks one of the two per packet and keeps them on disjoint VC
/// classes, which preserves deadlock freedom (each orientation's channel
/// dependency graph is acyclic on its own).
enum class Orientation { kXYFirst, kYXFirst };

class MeshRouting {
 public:
  MeshRouting(const topo::ExpressMesh& mesh, HopWeights weights);

  /// Assembles routing from externally computed per-row / per-column
  /// tables — the fault subsystem's rerouted tables over a degraded
  /// subgraph. `row_paths` needs one entry per row (each of size width),
  /// `col_paths` one per column (each of size height). Tables built this
  /// way may have unreachable pairs; check reachable() before routing.
  MeshRouting(std::vector<DirectionalShortestPaths> row_paths,
              std::vector<DirectionalShortestPaths> col_paths);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }

  /// True when the tables can deliver src -> dest under the orientation.
  /// Always true for tables built from an intact ExpressMesh; rerouted
  /// tables may have a severed monotone direction.
  [[nodiscard]] bool reachable(int src, int dest,
                               Orientation orientation =
                                   Orientation::kXYFirst) const;

  /// Next router id after `node` on the way to `dest`; `node == dest` is a
  /// precondition violation (the packet should eject instead), and so is an
  /// unreachable pair.
  [[nodiscard]] int next_hop(int node, int dest,
                             Orientation orientation =
                                 Orientation::kXYFirst) const;

  /// Complete router sequence src, ..., dest.
  [[nodiscard]] std::vector<int> path(int src, int dest,
                                      Orientation orientation =
                                          Orientation::kXYFirst) const;

  /// Number of links traversed from src to dest (0 when equal). For
  /// heterogeneous designs the two orientations can differ: XY uses the
  /// source's row and the destination's column, YX the source's column and
  /// the destination's row.
  [[nodiscard]] int hops(int src, int dest,
                         Orientation orientation =
                             Orientation::kXYFirst) const;

  /// Head cost (router + wire cycles) from src to dest under HopWeights,
  /// counting the row segment, the column segment, and nothing else — the
  /// +1 router convention is applied by the latency model, not here.
  [[nodiscard]] double head_cost(int src, int dest,
                                 Orientation orientation =
                                     Orientation::kXYFirst) const;

  /// Shortest-path tables of one row / one column (for inspection/tests).
  [[nodiscard]] const DirectionalShortestPaths& row_paths(int y) const;
  [[nodiscard]] const DirectionalShortestPaths& col_paths(int x) const;

 private:
  [[nodiscard]] const DirectionalShortestPaths& row(int y) const {
    return tables_[row_table_[static_cast<std::size_t>(y)]];
  }
  [[nodiscard]] const DirectionalShortestPaths& col(int x) const {
    return tables_[col_table_[static_cast<std::size_t>(x)]];
  }

  int width_;
  int height_;
  // One table per distinct line; row_table_[y] / col_table_[x] index the
  // table of row y / column x.
  std::vector<DirectionalShortestPaths> tables_;
  std::vector<std::size_t> row_table_;  // height entries, by y
  std::vector<std::size_t> col_table_;  // width entries, by x
};

}  // namespace xlp::route
