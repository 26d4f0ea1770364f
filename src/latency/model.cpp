#include "latency/model.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <vector>

#include "latency/packet_mix.hpp"
#include "util/check.hpp"

namespace xlp::latency {

MeshLatencyModel::MeshLatencyModel(const topo::ExpressMesh& mesh,
                                   LatencyParams params)
    : nodes_(mesh.node_count()),
      params_(params),
      routing_(mesh, params_.hop),
      serialization_(PacketMix::serialization_cycles(mesh.flit_bits())) {}

double MeshLatencyModel::pair_head_latency(int src, int dst) const {
  if (src == dst) return 0.0;
  const int hops = routing_.hops(src, dst);
  // head_cost already charges Tr per link; add one more Tr for the
  // destination router (routers traversed = hops + 1), plus contention.
  return routing_.head_cost(src, dst) + params_.hop.router_cycles +
         params_.contention_per_hop * hops;
}

double MeshLatencyModel::pair_latency(int src, int dst) const {
  if (src == dst) return 0.0;
  return pair_head_latency(src, dst) + serialization_;
}

namespace {

using route::DirectionalShortestPaths;

/// The segment latency cost + Tc * hops of every pair of one line,
/// row-major, kept for the next line while it shares the same table
/// (MeshRouting gives equal lines one table).
class SegmentLatencies {
 public:
  explicit SegmentLatencies(const LatencyParams& params)
      : hop_(params.hop), contention_(params.contention_per_hop) {}

  std::span<const double> of(const DirectionalShortestPaths& paths) {
    if (&paths == tabled_) return values_;
    tabled_ = &paths;
    const int size = paths.size();
    values_.resize(static_cast<std::size_t>(size) * size);
    for (int i = 0; i < size; ++i) {
      const int* hops = paths.hops_row(i);
      double* out = values_.data() + static_cast<std::size_t>(i) * size;
      for (int j = 0; j < size; ++j) {
        const double cost = hop_.path_cost(std::abs(j - i), hops[j]);
        out[j] = cost + contention_ * hops[j];
      }
    }
    return values_;
  }

 private:
  route::HopWeights hop_;
  double contention_;
  const DirectionalShortestPaths* tabled_ = nullptr;
  std::vector<double> values_;
};

/// One line's demand-weighted segment latency and its demand total.
struct LineFold {
  double latency = 0.0;
  double weight = 0.0;
};

/// Sums demand * latency over one line's block in four interleaved partial
/// sums, which keep the adds independent. The order moves only a weighted
/// sum's rounding: integer and half-integer sums are exact in any order.
LineFold fold_line(std::span<const double> block,
                   std::span<const double> latencies) {
  double latency[4] = {};
  double weight[4] = {};
  bool negative = false;
  const auto add = [&](std::size_t lane, std::size_t k) {
    const double w = block[k];
    negative |= !(w >= 0.0);
    latency[lane] += w * latencies[k];
    weight[lane] += w;
  };
  std::size_t k = 0;
  for (; k + 4 <= block.size(); k += 4)
    for (std::size_t lane = 0; lane < 4; ++lane) add(lane, k + lane);
  for (; k < block.size(); ++k) add(0, k);
  XLP_REQUIRE(!negative, "traffic rates must be non-negative");
  return {(latency[0] + latency[1]) + (latency[2] + latency[3]),
          (weight[0] + weight[1]) + (weight[2] + weight[3])};
}

}  // namespace

LatencyBreakdown MeshLatencyModel::weighted_average(
    const LineDemand& demand) const {
  const int width = routing_.width();
  const int height = routing_.height();
  XLP_REQUIRE(demand.width() == width && demand.height() == height,
              "traffic matrix dimensions do not match the design");
  SegmentLatencies latencies(params_);
  std::vector<double> block(static_cast<std::size_t>(width) * width);
  double segments = 0.0;
  double weight = 0.0;
  // Every pair's row segment, in its source's row; the row blocks' total
  // is the whole demand, the diagonals' pairs included.
  for (int y = 0; y < height; ++y) {
    demand.row_block(y, block);
    const LineFold row = fold_line(block, latencies.of(routing_.row_paths(y)));
    segments += row.latency;
    weight += row.weight;
  }
  // Every pair's column segment, in its destination's column.
  block.resize(static_cast<std::size_t>(height) * height);
  for (int x = 0; x < width; ++x) {
    demand.col_block(x, block);
    segments += fold_line(block, latencies.of(routing_.col_paths(x))).latency;
  }
  XLP_REQUIRE(weight > 0.0,
              "traffic matrix must carry some off-diagonal traffic");
  // One more Tr per pair for the destination router (pair_head_latency).
  const double head = segments + params_.hop.router_cycles * weight;
  return {head / weight, serialization_};
}

LatencyBreakdown MeshLatencyModel::average() const {
  return weighted_average(
      UniformDemand(routing_.width(), routing_.height()));
}

double MeshLatencyModel::worst_case() const {
  const int width = routing_.width();
  const int height = routing_.height();
  SegmentLatencies latencies(params_);
  // from_col[dx * height + sy]: the dearest column segment from row sy in
  // column dx, over every destination row; a column sharing the previous
  // column's table shares its values.
  std::vector<double> from_col(static_cast<std::size_t>(nodes_));
  const DirectionalShortestPaths* last = nullptr;
  for (int dx = 0; dx < width; ++dx) {
    const DirectionalShortestPaths& paths = routing_.col_paths(dx);
    const auto out =
        from_col.begin() + static_cast<std::ptrdiff_t>(dx) * height;
    if (&paths == last) {
      std::copy(out - height, out, out);
      continue;
    }
    last = &paths;
    const std::span<const double> col = latencies.of(paths);
    for (int sy = 0; sy < height; ++sy)
      out[sy] = *std::max_element(
          col.begin() + static_cast<std::ptrdiff_t>(sy) * height,
          col.begin() + static_cast<std::ptrdiff_t>(sy + 1) * height);
  }
  // into_row[dx]: the dearest row segment into turning point (sy, dx) over
  // every source column. A pair never has both segments empty, since every
  // line has at least two routers.
  std::vector<double> into_row(static_cast<std::size_t>(width));
  last = nullptr;
  double worst = 0.0;
  for (int sy = 0; sy < height; ++sy) {
    const DirectionalShortestPaths& paths = routing_.row_paths(sy);
    if (&paths != last) {
      last = &paths;
      const std::span<const double> row = latencies.of(paths);
      std::copy(row.begin(), row.begin() + width, into_row.begin());
      for (int sx = 1; sx < width; ++sx)
        for (int dx = 0; dx < width; ++dx)
          into_row[static_cast<std::size_t>(dx)] =
              std::max(into_row[static_cast<std::size_t>(dx)],
                       row[static_cast<std::size_t>(sx) * width + dx]);
    }
    for (int dx = 0; dx < width; ++dx)
      worst = std::max(
          worst, into_row[static_cast<std::size_t>(dx)] +
                     from_col[static_cast<std::size_t>(dx) * height + sy]);
  }
  return worst + params_.hop.router_cycles + serialization_;
}

double MeshLatencyModel::average_hops() const {
  // Every row segment is shared by the `height` destinations of its end
  // column, every column segment by the `width` sources of its start row.
  // Equal lines share one table, and so one total.
  const DirectionalShortestPaths* last = nullptr;
  long last_hops = 0;
  const auto total_hops = [&](const DirectionalShortestPaths& paths) {
    if (&paths != last) {
      last = &paths;
      last_hops = paths.total_hops();
    }
    return last_hops;
  };
  long row_hops = 0;
  for (int y = 0; y < routing_.height(); ++y)
    row_hops += total_hops(routing_.row_paths(y));
  long col_hops = 0;
  for (int x = 0; x < routing_.width(); ++x)
    col_hops += total_hops(routing_.col_paths(x));
  const long total = routing_.height() * row_hops + routing_.width() * col_hops;
  return static_cast<double>(total) /
         (static_cast<double>(nodes_) * (nodes_ - 1));
}

}  // namespace xlp::latency
