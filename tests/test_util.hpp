#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "latency/line_demand.hpp"
#include "route/directional_paths.hpp"
#include "svc/request.hpp"
#include "topo/connection_matrix.hpp"
#include "topo/row_topology.hpp"
#include "traffic/flows.hpp"
#include "util/rng.hpp"

namespace xlp::test {

/// Every router's neighbors in one direction, straight from the row's links
/// (local ones included): out[r] lists the far ends of r's rightward links,
/// or of its leftward ones.
inline std::vector<std::vector<int>> monotone_neighbors(
    const topo::RowTopology& row, bool rightward) {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(row.size()));
  for (const topo::RowLink& link : row.all_links()) {
    if (rightward)
      out[static_cast<std::size_t>(link.lo)].push_back(link.hi);
    else
      out[static_cast<std::size_t>(link.hi)].push_back(link.lo);
  }
  return out;
}

/// Reference implementation of the paper's routing computation: two
/// Floyd–Warshall passes over the full row graph, each with the opposite
/// direction's edges set to infinite weight (Section 4.5.1 verbatim).
/// Among equally cheap paths it keeps the fewest hops. O(n^3) and obviously
/// correct; production code uses a DAG DP instead.
class ReferenceDirectionalPaths {
 public:
  ReferenceDirectionalPaths(const topo::RowTopology& row,
                            route::HopWeights weights)
      : ReferenceDirectionalPaths(row.size(), monotone_neighbors(row, true),
                                  monotone_neighbors(row, false), weights) {}

  /// Over an explicit monotone adjacency, as the fault subsystem builds it:
  /// `right[r]` / `left[r]` are router r's surviving neighbors in each
  /// direction. Unreachable pairs keep infinite cost and -1 hops.
  ReferenceDirectionalPaths(int n, const std::vector<std::vector<int>>& right,
                            const std::vector<std::vector<int>>& left,
                            route::HopWeights weights)
      : n_(n),
        cost_(static_cast<std::size_t>(n_) * n_,
              std::numeric_limits<double>::infinity()),
        hops_(static_cast<std::size_t>(n_) * n_, -1) {
    run_pass(right, weights);
    run_pass(left, weights);
    for (int i = 0; i < n_; ++i) {
      cost_[at(i, i)] = 0.0;
      hops_[at(i, i)] = 0;
    }
  }

  [[nodiscard]] double cost(int i, int j) const { return cost_[at(i, j)]; }
  [[nodiscard]] int hops(int i, int j) const { return hops_[at(i, j)]; }

 private:
  [[nodiscard]] std::size_t at(int i, int j) const {
    return static_cast<std::size_t>(i) * n_ + j;
  }

  // One direction's edges only: adjacency[r] lists r's neighbors in it.
  void run_pass(const std::vector<std::vector<int>>& adjacency,
                route::HopWeights weights) {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> d(cost_.size(), inf);
    std::vector<int> h(cost_.size(), 0);
    for (int r = 0; r < n_; ++r) {
      d[at(r, r)] = 0.0;
      for (const int nbr : adjacency[static_cast<std::size_t>(r)]) {
        d[at(r, nbr)] = weights.link_cost(nbr > r ? nbr - r : r - nbr);
        h[at(r, nbr)] = 1;
      }
    }
    for (int k = 0; k < n_; ++k)
      for (int i = 0; i < n_; ++i)
        for (int j = 0; j < n_; ++j) {
          const double via = d[at(i, k)] + d[at(k, j)];
          const int via_hops = h[at(i, k)] + h[at(k, j)];
          if (via < d[at(i, j)] ||
              (via == d[at(i, j)] && via < inf && via_hops < h[at(i, j)])) {
            d[at(i, j)] = via;
            h[at(i, j)] = via_hops;
          }
        }
    for (int i = 0; i < n_; ++i)
      for (int j = 0; j < n_; ++j)
        if (i != j && d[at(i, j)] < inf) {
          cost_[at(i, j)] = d[at(i, j)];
          hops_[at(i, j)] = h[at(i, j)];
        }
  }

  int n_;
  std::vector<double> cost_;
  std::vector<int> hops_;
};

/// Random valid placement for P̄(n, C): decode of a random connection
/// matrix (by the reachability property this covers the whole valid space).
inline topo::RowTopology random_valid_row(int n, int link_limit, Rng& rng,
                                          double density = 0.5) {
  return topo::ConnectionMatrix::random(n, link_limit, rng, density).decode();
}

/// The positive rates of `demand`'s fill rows as a flow list.
inline traffic::Flows flows_of(const traffic::Demand& demand) {
  const int nodes = demand.width() * demand.height();
  std::vector<double> row(static_cast<std::size_t>(nodes));
  std::vector<traffic::Flow> flows;
  for (int src = 0; src < nodes; ++src) {
    demand.fill(src, row);
    for (int dst = 0; dst < nodes; ++dst)
      if (row[static_cast<std::size_t>(dst)] > 0.0)
        flows.push_back({src, dst, row[static_cast<std::size_t>(dst)]});
  }
  return traffic::Flows(demand.width(), demand.height(), std::move(flows));
}

/// The dense reference of a demand: its fill rows copied into one
/// row-major per-pair table, folded into line blocks the obvious way
/// (every pair, zeros included, added in (src, dst) order).
class DenseDemand final : public latency::LineDemand {
 public:
  explicit DenseDemand(const traffic::Demand& demand)
      : width_(demand.width()),
        height_(demand.height()),
        rates_(static_cast<std::size_t>(nodes()) * nodes()) {
    for (int src = 0; src < nodes(); ++src)
      demand.fill(src, std::span<double>(rates_).subspan(
                           static_cast<std::size_t>(src) * nodes(),
                           static_cast<std::size_t>(nodes())));
  }

  [[nodiscard]] int width() const override { return width_; }
  [[nodiscard]] int height() const override { return height_; }
  [[nodiscard]] int nodes() const { return width_ * height_; }
  [[nodiscard]] double rate(int src, int dst) const {
    return rates_[static_cast<std::size_t>(src) * nodes() + dst];
  }

  void row_block(int y, std::span<double> block) const override {
    std::fill(block.begin(), block.end(), 0.0);
    for (int a = 0; a < width_; ++a)
      for (int dst = 0; dst < nodes(); ++dst)
        block[static_cast<std::size_t>(a) * width_ + dst % width_] +=
            rate(y * width_ + a, dst);
  }

  void col_block(int x, std::span<double> block) const override {
    std::fill(block.begin(), block.end(), 0.0);
    for (int src = 0; src < nodes(); ++src)
      for (int v = 0; v < height_; ++v)
        block[static_cast<std::size_t>(src / width_) * height_ + v] +=
            rate(src, v * width_ + x);
  }

 private:
  int width_;
  int height_;
  std::vector<double> rates_;
};

/// A batch of distinct service requests: one solve per feasible link limit
/// of an n-router row, all with the same dcsa move budget and seed.
inline std::vector<svc::Request> distinct_solves(int n, long moves,
                                                 std::uint64_t seed) {
  std::vector<svc::Request> batch;
  for (const int limit : topo::valid_link_limits(n)) {
    svc::Request request;
    request.n = n;
    request.link_limit = limit;
    request.moves = moves;
    request.seed = seed;
    batch.push_back(request);
  }
  return batch;
}

/// A batch as the submission document xlpd ingests: a JSON array.
inline std::string batch_text(const std::vector<svc::Request>& batch) {
  std::string out = "[";
  for (const svc::Request& request : batch) {
    if (out.size() > 1) out += ",";
    out += request.to_json().dump();
  }
  return out + "]";
}

}  // namespace xlp::test
