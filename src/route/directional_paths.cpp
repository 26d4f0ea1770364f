#include "route/directional_paths.hpp"

#include <algorithm>
#include <limits>

#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace xlp::route {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One relaxation step of the monotone shortest-path DP: candidate path
/// from `i` through neighbor `via` with tail cost/hops `base_cost` /
/// `base_hops`, against the incumbent cell (cur_cost, cur_hops, cur_next).
/// Tie-break: lower cost, then fewer hops, then the longest first hop (take
/// the express link as early as possible — deterministic and keeps packets
/// off local links that shorter-haul traffic needs).
inline void relax_monotone(const HopWeights& weights, int i, int via,
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

}  // namespace

DirectionalShortestPaths::DirectionalShortestPaths(
    const topo::RowTopology& row, HopWeights weights)
    : n_(row.size()),
      weights_(weights),
      cost_(static_cast<std::size_t>(n_) * n_, kInf),
      hops_(static_cast<std::size_t>(n_) * n_, -1),
      next_(static_cast<std::size_t>(n_) * n_, -1) {
  // Adjacency by direction. neighbors_right/left are sorted and de-duped.
  std::vector<std::vector<int>> right(static_cast<std::size_t>(n_));
  std::vector<std::vector<int>> left(static_cast<std::size_t>(n_));
  for (int r = 0; r < n_; ++r) {
    right[r] = row.neighbors_right(r);
    left[r] = row.neighbors_left(r);
  }
  compute(right, left);

  // Local links guarantee connectivity in both directions.
  for (int i = 0; i < n_; ++i)
    for (int j = 0; j < n_; ++j)
      XLP_CHECK(cost_[idx(i, j)] < kInf,
                "row with local links must be fully connected");
}

DirectionalShortestPaths::DirectionalShortestPaths(
    int n, const std::vector<std::vector<int>>& right,
    const std::vector<std::vector<int>>& left, HopWeights weights)
    : n_(n),
      weights_(weights),
      cost_(static_cast<std::size_t>(n_) * n_, kInf),
      hops_(static_cast<std::size_t>(n_) * n_, -1),
      next_(static_cast<std::size_t>(n_) * n_, -1) {
  XLP_REQUIRE(n >= 2, "a row needs at least two routers");
  XLP_REQUIRE(right.size() == static_cast<std::size_t>(n) &&
                  left.size() == static_cast<std::size_t>(n),
              "adjacency lists must have one entry per router");
  compute(right, left);
}

void DirectionalShortestPaths::compute(
    const std::vector<std::vector<int>>& right,
    const std::vector<std::vector<int>>& left) {
  const obs::ProfileScope profile_scope("route.monotone_sp");
  for (int i = 0; i < n_; ++i) {
    cost_[idx(i, i)] = 0.0;
    hops_[idx(i, i)] = 0;
  }

  // Monotone paths form a DAG in each direction; fill by increasing span.
  auto relax = [&](int i, int j, int via, double base_cost, int base_hops) {
    relax_monotone(weights_, i, via, base_cost, base_hops, cost_[idx(i, j)],
                   hops_[idx(i, j)], next_[idx(i, j)]);
  };

  for (int span = 1; span < n_; ++span) {
    for (int i = 0; i + span < n_; ++i) {
      const int j = i + span;
      // Rightward: i -> j via any right neighbor k <= j.
      for (int k : right[i]) {
        if (k > j) break;
        if (cost_[idx(k, j)] < kInf) relax(i, j, k, cost_[idx(k, j)],
                                           hops_[idx(k, j)]);
      }
      // Leftward: j -> i via any left neighbor k >= i.
      for (int k : left[j]) {
        if (k < i) continue;
        if (cost_[idx(k, i)] < kInf) relax(j, i, k, cost_[idx(k, i)],
                                           hops_[idx(k, i)]);
      }
    }
  }
}

bool DirectionalShortestPaths::reachable(int i, int j) const {
  XLP_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "index out of range");
  return cost_[idx(i, j)] < kInf;
}

double DirectionalShortestPaths::cost(int i, int j) const {
  XLP_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "index out of range");
  return cost_[idx(i, j)];
}

int DirectionalShortestPaths::hops(int i, int j) const {
  XLP_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "index out of range");
  return hops_[idx(i, j)];
}

int DirectionalShortestPaths::next_hop(int i, int j) const {
  XLP_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "index out of range");
  XLP_REQUIRE(i != j, "no next hop from a router to itself");
  return next_[idx(i, j)];
}

const double* DirectionalShortestPaths::cost_row(int i) const {
  XLP_REQUIRE(i >= 0 && i < n_, "index out of range");
  return cost_.data() + idx(i, 0);
}

const int* DirectionalShortestPaths::hops_row(int i) const {
  XLP_REQUIRE(i >= 0 && i < n_, "index out of range");
  return hops_.data() + idx(i, 0);
}

std::vector<int> DirectionalShortestPaths::path(int i, int j) const {
  XLP_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "index out of range");
  XLP_REQUIRE(cost_[idx(i, j)] < kInf,
              "no surviving monotone path between these routers");
  std::vector<int> out{i};
  int cur = i;
  while (cur != j) {
    cur = next_hop(cur, j);
    out.push_back(cur);
    XLP_CHECK(out.size() <= static_cast<std::size_t>(n_),
              "routing table produced a path longer than the row");
  }
  return out;
}

// Both averages accumulate one partial sum per source row and then sum the
// row partials, so the independent row chains pipeline on the FP units
// instead of serializing 240+ dependent additions. The weighted order is a
// contract: core::DeltaRowObjective reproduces its bits by refreshing only
// the row partials whose costs changed, so changing the weighted summation
// order here means changing it there too. The uniform sum needs no such
// care: the delta evaluator only runs where every cost is an exact integer
// (RowObjective::delta_supported), and there any order gives the same sum.
double DirectionalShortestPaths::average_cost() const {
  double total = 0.0;
  for (int i = 0; i < n_; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * n_;
    double row = 0.0;
    for (int j = 0; j < i; ++j) row += cost_[base + j];
    for (int j = i + 1; j < n_; ++j) row += cost_[base + j];
    total += row;
  }
  return total / (static_cast<double>(n_) * (n_ - 1));
}

double DirectionalShortestPaths::weighted_average_cost(
    const std::vector<double>& weight) const {
  XLP_REQUIRE(weight.size() == cost_.size(),
              "weight matrix must be n*n, flattened row-major");
  double total = 0.0;
  double wsum = 0.0;
  for (int i = 0; i < n_; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * n_;
    double row_total = 0.0;
    double row_wsum = 0.0;
    for (int j = 0; j < n_; ++j) {
      const double w = weight[base + j];
      XLP_REQUIRE(w >= 0.0, "weights must be non-negative");
      if (i == j) continue;
      row_total += w * cost_[base + j];
      row_wsum += w;
    }
    total += row_total;
    wsum += row_wsum;
  }
  XLP_REQUIRE(wsum > 0.0, "weights must have a positive sum");
  return total / wsum;
}

long DirectionalShortestPaths::total_hops() const {
  long total = 0;
  for (int i = 0; i < n_; ++i)
    for (int j = 0; j < n_; ++j)
      if (i != j) total += hops_[idx(i, j)];
  return total;
}

double DirectionalShortestPaths::average_hops() const {
  return static_cast<double>(total_hops()) /
         (static_cast<double>(n_) * (n_ - 1));
}

double DirectionalShortestPaths::max_cost() const {
  return *std::max_element(cost_.begin(), cost_.end());
}

}  // namespace xlp::route
