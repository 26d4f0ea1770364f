#include "route/directional_paths.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "util/check.hpp"

namespace xlp::route {

DirectionalShortestPaths::DirectionalShortestPaths(
    const topo::RowTopology& row, HopWeights weights)
    : n_(row.size()), weights_(weights) {
  const obs::ProfileScope profile_scope("route.monotone_sp");
  start_table();
  // Rightward in one pass over the express links from the last: they are
  // sorted, so the links leaving router i come just before those leaving
  // i + 1. The local link alone bounds hops(i, j) by j - i, so every pair
  // is reachable.
  const std::vector<topo::RowLink>& links = row.express_links();
  auto link = links.rbegin();
  for (int i = n_ - 2; i >= 0; --i) {
    relax_right(i, i + 1);
    for (; link != links.rend() && link->lo == i; ++link)
      relax_right(i, link->hi);
  }
  // Every link runs both ways, so the leftward path j -> i is the
  // rightward path i -> j reversed.
  for (int i = 0; i < n_; ++i)
    for (int j = i + 1; j < n_; ++j) hops_[idx(j, i)] = hops_[idx(i, j)];
}

DirectionalShortestPaths::DirectionalShortestPaths(
    int n, const std::vector<std::vector<int>>& right,
    const std::vector<std::vector<int>>& left, HopWeights weights)
    : n_(n), weights_(weights) {
  XLP_REQUIRE(n >= 2, "a row needs at least two routers");
  XLP_REQUIRE(right.size() == static_cast<std::size_t>(n) &&
                  left.size() == static_cast<std::size_t>(n),
              "adjacency lists must have one entry per router");
  const obs::ProfileScope profile_scope("route.monotone_sp");
  start_table();
  for (int i = n_ - 2; i >= 0; --i) {
    for (const int k : right[static_cast<std::size_t>(i)]) {
      XLP_REQUIRE(k > i && k < n_, "a right neighbor must lie right of it");
      relax_right(i, k);
    }
  }
  for (int j = 1; j < n_; ++j) {
    for (const int k : left[static_cast<std::size_t>(j)]) {
      XLP_REQUIRE(k >= 0 && k < j, "a left neighbor must lie left of it");
      relax_left(j, k);
    }
  }
  std::replace(hops_.begin(), hops_.end(), n_, -1);
}

void DirectionalShortestPaths::start_table() {
  XLP_REQUIRE(weights_.router_cycles >= 0.0,
              "the fewest hops are the cheapest only while Tr >= 0");
  // A path has at most n - 1 hops, so n stands for "no path" until the
  // end, and 1 + n never wins a minimum.
  hops_.assign(static_cast<std::size_t>(n_) * n_, n_);
  for (int i = 0; i < n_; ++i) hops_[idx(i, i)] = 0;
}

void DirectionalShortestPaths::relax_right(int i, int k) {
  // A path i -> j whose first link is i -> k: row i from k on is at most
  // 1 + row k there. Rows below i are complete by then.
  int* row = hops_.data() + idx(i, 0);
  const int* via = hops_.data() + idx(k, 0);
  for (int j = k; j < n_; ++j) row[j] = std::min(row[j], via[j] + 1);
}

void DirectionalShortestPaths::relax_left(int j, int k) {
  // Mirrored: a path j -> i whose first link is j -> k, k >= i. Rows
  // above j are complete by then.
  int* row = hops_.data() + idx(j, 0);
  const int* via = hops_.data() + idx(k, 0);
  for (int i = 0; i <= k; ++i) row[i] = std::min(row[i], via[i] + 1);
}

bool DirectionalShortestPaths::reachable(int i, int j) const {
  return hops(i, j) >= 0;
}

double DirectionalShortestPaths::cost(int i, int j) const {
  XLP_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "index out of range");
  return cost_at(i, j);
}

int DirectionalShortestPaths::hops(int i, int j) const {
  XLP_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "index out of range");
  return hops_[idx(i, j)];
}

int DirectionalShortestPaths::next_hop(int i, int j) const {
  XLP_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "index out of range");
  XLP_REQUIRE(i != j, "no next hop from a router to itself");
  const int h = hops_[idx(i, j)];
  if (h < 0) return -1;
  // The longest first hop among the shortest paths: take the express link
  // as early as possible (deterministic, and keeps packets off the local
  // links that shorter-haul traffic needs). hops(i, k) == 1 exactly when i
  // links straight to k.
  const int step = j > i ? -1 : 1;
  for (int k = j; k != i; k += step)
    if (hops_[idx(i, k)] == 1 && hops_[idx(k, j)] == h - 1) return k;
  XLP_CHECK(false, "a reachable pair must have a neighbor one hop closer");
  return -1;
}

const int* DirectionalShortestPaths::hops_row(int i) const {
  XLP_REQUIRE(i >= 0 && i < n_, "index out of range");
  return hops_.data() + idx(i, 0);
}

std::vector<int> DirectionalShortestPaths::path(int i, int j) const {
  XLP_REQUIRE(reachable(i, j),
              "no surviving monotone path between these routers");
  std::vector<int> out{i};
  while (out.back() != j) out.push_back(next_hop(out.back(), j));
  return out;
}

// One partial sum per source row, then the sum of the partials, so the
// independent row chains pipeline on the FP units instead of serializing
// 240+ dependent additions.
double DirectionalShortestPaths::average_cost() const {
  double total = 0.0;
  for (int i = 0; i < n_; ++i) {
    double row = 0.0;
    for (int j = 0; j < i; ++j) row += cost_at(i, j);
    for (int j = i + 1; j < n_; ++j) row += cost_at(i, j);
    total += row;
  }
  return total / (static_cast<double>(n_) * (n_ - 1));
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
  double worst = 0.0;
  for (int i = 0; i < n_; ++i)
    for (int j = 0; j < n_; ++j) worst = std::max(worst, cost_at(i, j));
  return worst;
}

}  // namespace xlp::route
