#include "core/objective.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace xlp::core {

RowObjective::RowObjective(int n, route::HopWeights weights)
    : n_(n), hop_(weights) {
  XLP_REQUIRE(n >= 2, "a row needs at least two routers");
}

RowObjective::RowObjective(int n, route::HopWeights weights,
                           std::vector<double> pair_weights)
    : n_(n), hop_(weights), pair_weights_(std::move(pair_weights)) {
  XLP_REQUIRE(n >= 2, "a row needs at least two routers");
  XLP_REQUIRE(pair_weights_.size() ==
                  static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
              "pair weights must be n*n, flattened row-major");
  double off_diag = 0.0;
  for (int i = 0; i < n_; ++i)
    for (int j = 0; j < n_; ++j) {
      const double w = pair_weights_[static_cast<std::size_t>(i) * n_ + j];
      XLP_REQUIRE(w >= 0.0, "pair weights must be non-negative");
      if (i != j) off_diag += w;
    }
  weights_all_zero_ = off_diag <= 0.0;
}

void RowObjective::set_worst_case_weight(double weight) {
  XLP_REQUIRE(weight >= 0.0 && weight <= 1.0,
              "worst-case weight must be in [0, 1]");
  worst_weight_ = weight;
}

void RowObjective::set_secondary(
    double weight, std::function<double(const topo::RowTopology&)> metric) {
  XLP_REQUIRE(weight >= 0.0 && weight <= 1.0,
              "secondary weight must be in [0, 1]");
  XLP_REQUIRE(weight == 0.0 || metric,
              "a positive secondary weight needs a metric");
  secondary_weight_ = weight;
  secondary_ = weight > 0.0 ? std::move(metric) : nullptr;
}

bool RowObjective::delta_supported() const noexcept {
  const auto is_integer = [](double w) {
    return w >= 0.0 && w == std::floor(w);
  };
  if (secondary_weight_ > 0.0 || !is_integer(hop_.router_cycles) ||
      !is_integer(hop_.link_cycles_per_unit))
    return false;
  // The delta evaluator stores hop counts, at most n - 1, in bytes.
  if (n_ > 256) return false;
  // Any monotone path, shortest or not, has at most n - 1 hops costing at
  // most link_cost(n - 1) each. The delta evaluator sums n^2 such costs,
  // which stay exact integers in a double only below 2^53.
  const double n = n_;
  return n * n * (n - 1) * hop_.link_cost(n_ - 1) < 9007199254740992.0;
}

double RowObjective::evaluate(const topo::RowTopology& row) const {
  XLP_REQUIRE(row.size() == n_, "placement size does not match objective");
  count_evaluation();
  return evaluate_uncounted(row);
}

double RowObjective::evaluate_uncounted(const topo::RowTopology& row) const {
  const route::DirectionalShortestPaths paths(row, hop_);
  const double average = (pair_weights_.empty() || weights_all_zero_)
                             ? paths.average_cost()
                             : paths.weighted_average_cost(pair_weights_);
  double primary = average;
  if (worst_weight_ > 0.0)
    primary =
        (1.0 - worst_weight_) * average + worst_weight_ * paths.max_cost();
  if (secondary_weight_ <= 0.0) return primary;
  return (1.0 - secondary_weight_) * primary +
         secondary_weight_ * secondary_(row);
}

RowObjective RowObjective::sub_objective(int lo, int len) const {
  XLP_REQUIRE(lo >= 0 && len >= 2 && lo + len <= n_,
              "sub-row out of range");
  RowObjective sub = [&] {
    if (pair_weights_.empty()) return RowObjective(len, hop_);
    std::vector<double> w(static_cast<std::size_t>(len) * len, 0.0);
    for (int i = 0; i < len; ++i)
      for (int j = 0; j < len; ++j)
        w[static_cast<std::size_t>(i) * len + j] =
            pair_weights_[static_cast<std::size_t>(lo + i) * n_ + (lo + j)];
    return RowObjective(len, hop_, std::move(w));
  }();
  sub.evals_ = evals_;  // attribute recursive work to the root objective
  sub.worst_weight_ = worst_weight_;
  sub.secondary_weight_ = secondary_weight_;
  sub.secondary_ = secondary_;
  return sub;
}

}  // namespace xlp::core
