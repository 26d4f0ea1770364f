#pragma once

#include <span>
#include <vector>

#include "latency/line_demand.hpp"
#include "traffic/patterns.hpp"
#include "util/rng.hpp"

namespace xlp::traffic {

/// Largest side a simulate request or `xlp trace` may take: their sampler
/// (traffic::Injection) holds one flow per pair with traffic, ~200 MB for
/// UR at 64. Evaluate and appspec read line blocks and are not bound by it.
inline constexpr int kDenseDemandMaxSide = 64;

/// A workload's demand: its source rows, which the packet sampler
/// (traffic::Injection) draws from, and its line blocks, which the latency
/// model folds.
class Demand : public latency::LineDemand {
 public:
  /// Writes the rates from `src` to every node into `row`, which holds
  /// width() * height() entries.
  virtual void fill(int src, std::span<double> row) const = 0;
};

/// Long-run traffic-rate matrix gamma: rates[src*N + dst] is the expected
/// packet injection rate (packets/cycle) from node src to node dst on an
/// n x n network. The diagonal is always zero. This is the gamma_ij of
/// Section 5.6.4 and the offered-load description the simulator samples
/// from. Its line blocks are sums of its rates, so the latency model folds a
/// dense matrix the way it folds DemandRows.
class TrafficMatrix final : public Demand {
 public:
  /// All-zero matrix for an n x n network.
  explicit TrafficMatrix(int n);

  /// All-zero matrix for a rectangular width x height network.
  TrafficMatrix(int width, int height);

  [[nodiscard]] int width() const noexcept override { return width_; }
  [[nodiscard]] int height() const noexcept override { return height_; }
  /// Routers per side; only valid for square networks (throws otherwise).
  [[nodiscard]] int side() const;
  [[nodiscard]] int node_count() const noexcept { return width_ * height_; }

  [[nodiscard]] double rate(int src, int dst) const;
  void set_rate(int src, int dst, double packets_per_cycle);
  void add_rate(int src, int dst, double packets_per_cycle);
  /// Sets every rate from `src`: `row` holds node_count() non-negative
  /// rates and row[src] is zero.
  void set_row(int src, std::span<const double> row);
  void fill(int src, std::span<double> row) const override;

  /// Sum of all rates: aggregate offered load in packets/cycle.
  [[nodiscard]] double total_rate() const;

  /// Scales every entry so that total_rate() becomes `target`.
  void scale_total(double target);

  /// Expected long-run rate matrix of a synthetic pattern at the given
  /// per-node injection rate: the rows of DemandRows(p, n, rate).
  static TrafficMatrix from_pattern(Pattern p, int n,
                                    double per_node_packets_per_cycle);

  /// Line blocks (latency::LineDemand): the total rate from node (a, y) to
  /// every node with x = b, each destination added in id order; and the
  /// total rate from every node with y = u to node (x, v), each source
  /// added in id order.
  void row_block(int y, std::span<double> block) const override;
  void col_block(int x, std::span<double> block) const override;

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
