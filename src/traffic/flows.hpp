#pragma once

#include <span>
#include <vector>

#include "traffic/demand.hpp"

namespace xlp::traffic {

/// One entry of an explicit demand: `rate` packets/cycle from node `src` to
/// node `dst` (node ids are y * width + x).
struct Flow {
  int src = 0;
  int dst = 0;
  double rate = 0.0;

  friend constexpr bool operator==(const Flow&, const Flow&) = default;
};

/// An explicit demand as a sparse, immutable flow list: the pairs that
/// carry traffic and nothing else, so its memory is O(flows) at any network
/// size. This is the gamma_ij a profiling run observes (Section 5.6.4), the
/// PARSEC average, and a shape rescaled to an offered load. Its line blocks
/// add each pair in (src, dst) order, the order a dense row-major table's
/// fold would, so they carry the same bits.
class Flows final : public Demand {
 public:
  /// The demand of `entries` on a width x height network. The entries are
  /// sorted stably by (src, dst); a pair listed more than once carries the
  /// sum of its rates, added in input order; zero rates are dropped. Throws
  /// PreconditionError on a dimension below 2, a node out of range, a
  /// negative rate or a self pair.
  Flows(int width, int height, std::vector<Flow> entries);

  [[nodiscard]] int width() const noexcept override { return width_; }
  [[nodiscard]] int height() const noexcept override { return height_; }

  /// The positive-rate pairs, sorted by (src, dst), each once.
  [[nodiscard]] std::span<const Flow> entries() const noexcept {
    return flows_;
  }

  /// Sum of all rates, in (src, dst) order: the offered load in
  /// packets/cycle.
  [[nodiscard]] double total_rate() const;

  void fill(int src, std::span<double> row) const override;

  /// Line blocks (latency::LineDemand): the total rate from node (a, y) to
  /// every node with x = b, and from every node with y = u to node (x, v),
  /// each pair added in (src, dst) order.
  void row_block(int y, std::span<double> block) const override;
  void col_block(int x, std::span<double> block) const override;

  /// Concentration: maps a core-level demand onto a router grid where each
  /// router serves a `block` x `block` tile of cores (e.g. block=2 is the
  /// 4-way concentration used by flattened-butterfly designs [17]). Traffic
  /// between cores of the same tile never enters the network and is
  /// dropped. Requires both dimensions to be multiples of `block`.
  [[nodiscard]] Flows concentrate(int block) const;

 private:
  /// The flows from sources [first, last), a contiguous run.
  [[nodiscard]] std::span<const Flow> sources(int first, int last) const;

  int width_;
  int height_;
  std::vector<Flow> flows_;
};

/// The "average over the ten benchmarks" workload the paper uses for
/// Fig. 5: each PARSEC model's rows divided by the model count, added in
/// model order.
[[nodiscard]] Flows parsec_average(int n);

}  // namespace xlp::traffic
