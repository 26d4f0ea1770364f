#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "route/directional_paths.hpp"
#include "svc/request.hpp"
#include "topo/connection_matrix.hpp"
#include "topo/row_topology.hpp"
#include "util/rng.hpp"

namespace xlp::test {

/// Reference implementation of the paper's routing computation: two
/// Floyd–Warshall passes over the full row graph, each with the opposite
/// direction's edges set to infinite weight (Section 4.5.1 verbatim).
/// O(n^3) and obviously correct; production code uses a DAG DP instead.
class ReferenceDirectionalPaths {
 public:
  ReferenceDirectionalPaths(const topo::RowTopology& row,
                            route::HopWeights weights)
      : n_(row.size()),
        cost_(static_cast<std::size_t>(n_) * n_,
              std::numeric_limits<double>::infinity()) {
    // Rightward pass.
    run_pass(row, weights, /*rightward=*/true);
    run_pass(row, weights, /*rightward=*/false);
    for (int i = 0; i < n_; ++i) at(i, i) = 0.0;
  }

  [[nodiscard]] double cost(int i, int j) const {
    return cost_[static_cast<std::size_t>(i) * n_ + j];
  }

 private:
  double& at(int i, int j) {
    return cost_[static_cast<std::size_t>(i) * n_ + j];
  }

  void run_pass(const topo::RowTopology& row, route::HopWeights weights,
                bool rightward) {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> d(static_cast<std::size_t>(n_) * n_, inf);
    auto dd = [&](int i, int j) -> double& {
      return d[static_cast<std::size_t>(i) * n_ + j];
    };
    for (int i = 0; i < n_; ++i) dd(i, i) = 0.0;
    for (const topo::RowLink& link : row.all_links()) {
      const double w = weights.link_cost(link.length());
      if (rightward)
        dd(link.lo, link.hi) = std::min(dd(link.lo, link.hi), w);
      else
        dd(link.hi, link.lo) = std::min(dd(link.hi, link.lo), w);
    }
    for (int k = 0; k < n_; ++k)
      for (int i = 0; i < n_; ++i)
        for (int j = 0; j < n_; ++j)
          if (dd(i, k) + dd(k, j) < dd(i, j)) dd(i, j) = dd(i, k) + dd(k, j);
    for (int i = 0; i < n_; ++i)
      for (int j = 0; j < n_; ++j)
        if (rightward ? i < j : i > j) at(i, j) = dd(i, j);
  }

  int n_;
  std::vector<double> cost_;
};

/// Random valid placement for P̄(n, C): decode of a random connection
/// matrix (by the reachability property this covers the whole valid space).
inline topo::RowTopology random_valid_row(int n, int link_limit, Rng& rng,
                                          double density = 0.5) {
  return topo::ConnectionMatrix::random(n, link_limit, rng, density).decode();
}

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
