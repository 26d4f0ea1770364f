#include "latency/model.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/check.hpp"

namespace xlp::latency {

MeshLatencyModel::MeshLatencyModel(const topo::ExpressMesh& mesh,
                                   LatencyParams params)
    : nodes_(mesh.node_count()),
      params_(std::move(params)),
      routing_(mesh, params_.hop),
      serialization_(params_.mix.serialization_cycles(mesh.flit_bits())) {}

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

PairSums MeshLatencyModel::sum_pairs(const RowSource& demand) const {
  const int width = routing_.width();
  const int height = routing_.height();
  const double router = params_.hop.router_cycles;
  const double contention = params_.contention_per_hop;
  // A pair's column segment runs in the destination's column from the
  // source's row, so one table per source row, indexed by destination,
  // serves every source in that row.
  std::vector<double> col_cost(static_cast<std::size_t>(nodes_));
  std::vector<int> col_hops(static_cast<std::size_t>(nodes_));
  double weighted_head = 0.0;
  double weight = 0.0;
  double worst = 0.0;
  for (int sy = 0; sy < height; ++sy) {
    for (int dx = 0; dx < width; ++dx) {
      const route::DirectionalShortestPaths& col = routing_.col_paths(dx);
      const double* cost = col.cost_row(sy);
      const int* hops = col.hops_row(sy);
      for (int dy = 0; dy < height; ++dy) {
        col_cost[static_cast<std::size_t>(dy) * width + dx] = cost[dy];
        col_hops[static_cast<std::size_t>(dy) * width + dx] = hops[dy];
      }
    }
    const route::DirectionalShortestPaths& row = routing_.row_paths(sy);
    for (int sx = 0; sx < width; ++sx) {
      const int src = sy * width + sx;
      const double* rates = demand(src);
      const double* row_cost = row.cost_row(sx);
      const int* row_hops = row.hops_row(sx);
      int dst = 0;
      for (int dy = 0; dy < height; ++dy) {
        for (int dx = 0; dx < width; ++dx, ++dst) {
          const double w = rates[dst];
          XLP_REQUIRE(w >= 0.0, "traffic rates must be non-negative");
          if (dst == src) continue;
          // pair_head_latency(src, dst), term for term and in its order.
          const double head = row_cost[dx] + col_cost[dst] + router +
                              contention * (row_hops[dx] + col_hops[dst]);
          weighted_head += w * head;
          weight += w;
          worst = std::max(worst, head + serialization_);
        }
      }
    }
  }
  return {weighted_head, weight, worst};
}

PairSums MeshLatencyModel::uniform_sums() const {
  const std::vector<double> ones(static_cast<std::size_t>(nodes_), 1.0);
  return sum_pairs([&ones](int) { return ones.data(); });
}

LatencyBreakdown MeshLatencyModel::weighted_average(
    const PairSums& sums) const {
  XLP_REQUIRE(sums.weight > 0.0,
              "traffic matrix must carry some off-diagonal traffic");
  return {sums.weighted_head / sums.weight, serialization_};
}

LatencyBreakdown MeshLatencyModel::average() const {
  const double pairs = static_cast<double>(nodes_) * (nodes_ - 1);
  return {uniform_sums().weighted_head / pairs, serialization_};
}

LatencyBreakdown MeshLatencyModel::weighted_average(
    const std::vector<double>& rates) const {
  const std::size_t nodes = static_cast<std::size_t>(nodes_);
  XLP_REQUIRE(rates.size() == nodes * nodes,
              "traffic matrix must be N*N, flattened row-major");
  return weighted_average(sum_pairs(
      [&rates, nodes](int src) {
        return rates.data() + static_cast<std::size_t>(src) * nodes;
      }));
}

double MeshLatencyModel::worst_case() const { return uniform_sums().worst; }

double MeshLatencyModel::average_hops() const {
  // Every row segment is shared by the `height` destinations of its end
  // column, every column segment by the `width` sources of its start row.
  long row_hops = 0;
  for (int y = 0; y < routing_.height(); ++y)
    row_hops += routing_.row_paths(y).total_hops();
  long col_hops = 0;
  for (int x = 0; x < routing_.width(); ++x)
    col_hops += routing_.col_paths(x).total_hops();
  const long total = routing_.height() * row_hops + routing_.width() * col_hops;
  return static_cast<double>(total) /
         (static_cast<double>(nodes_) * (nodes_ - 1));
}

}  // namespace xlp::latency
