#pragma once

#include <span>
#include <vector>

#include "traffic/patterns.hpp"
#include "util/rng.hpp"

namespace xlp::traffic {

/// Largest network side whose dense matrix a request may build: 64^4
/// rates are 134 MB. Kinds that stream the demand row by row (evaluate)
/// are not bound by it.
inline constexpr int kDenseDemandMaxSide = 64;

/// Long-run traffic-rate matrix gamma: rates[src*N + dst] is the expected
/// packet injection rate (packets/cycle) from node src to node dst on an
/// n x n network. The diagonal is always zero. This is the gamma_ij of
/// Section 5.6.4 and the offered-load description the simulator samples
/// from.
class TrafficMatrix {
 public:
  /// All-zero matrix for an n x n network.
  explicit TrafficMatrix(int n);

  /// All-zero matrix for a rectangular width x height network.
  TrafficMatrix(int width, int height);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] bool is_square() const noexcept { return width_ == height_; }
  /// Routers per side; only valid for square networks (throws otherwise).
  [[nodiscard]] int side() const;
  [[nodiscard]] int node_count() const noexcept { return width_ * height_; }

  [[nodiscard]] double rate(int src, int dst) const;
  void set_rate(int src, int dst, double packets_per_cycle);
  void add_rate(int src, int dst, double packets_per_cycle);
  /// Sets every rate from `src`: `row` holds node_count() non-negative
  /// rates and row[src] is zero.
  void set_row(int src, std::span<const double> row);

  /// Flattened N*N row-major copy (what MeshLatencyModel::weighted_average
  /// and the row/column decompositions consume).
  [[nodiscard]] const std::vector<double>& rates() const noexcept {
    return rates_;
  }

  /// Sum of all rates: aggregate offered load in packets/cycle.
  [[nodiscard]] double total_rate() const;

  /// Offered load of one source node (row sum), packets/cycle.
  [[nodiscard]] double node_rate(int src) const;

  /// Scales every entry so that total_rate() becomes `target`.
  void scale_total(double target);

  /// Expected long-run rate matrix of a synthetic pattern at the given
  /// per-node injection rate: the rows of DemandRows(p, n, rate).
  static TrafficMatrix from_pattern(Pattern p, int n,
                                    double per_node_packets_per_cycle);

  /// Row decomposition for the application-specific objective: under XY
  /// routing, the row-segment demand of row y between in-row positions
  /// (a, b) is the total rate from node (a, y) to any node with x = b.
  /// Returns the flattened width*width weight matrix for that row.
  [[nodiscard]] std::vector<double> row_weights(int y) const;

  /// Column decomposition: the column-segment demand of column x between
  /// in-column positions (u, v) is the total rate from any node with y = u
  /// to node (x, v); a flattened height*height matrix.
  [[nodiscard]] std::vector<double> col_weights(int x) const;

  /// Concentration: maps a core-level matrix onto a router grid where each
  /// router serves a `block` x `block` tile of cores (e.g. block=2 is the
  /// 4-way concentration used by flattened-butterfly designs [17]). Traffic
  /// between cores of the same tile never enters the network and is
  /// dropped. Requires both dimensions to be multiples of `block`.
  [[nodiscard]] TrafficMatrix concentrate(int block) const;

 private:
  [[nodiscard]] std::size_t idx(int src, int dst) const {
    return static_cast<std::size_t>(src) * node_count() + dst;
  }

  int width_;
  int height_;
  std::vector<double> rates_;
};

}  // namespace xlp::traffic
