#include "core/objective.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace xlp::core {

RowObjective::RowObjective(int n, route::HopWeights weights)
    : n_(n), hop_(weights) {
  XLP_REQUIRE(n >= 2, "a row needs at least two routers");
  fold_constant_sums();
}

RowObjective::RowObjective(int n, route::HopWeights weights,
                           std::vector<double> pair_weights)
    : n_(n), hop_(weights) {
  XLP_REQUIRE(n >= 2, "a row needs at least two routers");
  XLP_REQUIRE(pair_weights.size() ==
                  static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
              "pair weights must be n*n, flattened row-major");
  double largest = 0.0;
  for (int i = 0; i < n_; ++i)
    for (int j = 0; j < n_; ++j) {
      const double w = pair_weights[static_cast<std::size_t>(i) * n_ + j];
      XLP_REQUIRE(w >= 0.0 && std::isfinite(w),
                  "pair weights must be finite and non-negative");
      if (i != j) largest = std::max(largest, w);
    }
  if (largest > 0.0) {
    // q(w) = round(w · 2^shift), with shift chosen so that q(largest) is at
    // most 2^bits <= cap: then n^2 · q · (n - 1), which bounds SD and SH,
    // stays below 2^63.
    const std::int64_t cap = std::numeric_limits<std::int64_t>::max() /
                             (std::int64_t{n_} * n_ * (n_ - 1));
    XLP_REQUIRE(cap >= 2, "row too long for integer pair weights");
    const int bits = std::bit_width(static_cast<std::uint64_t>(cap)) - 1;
    int largest_exp = 0;
    (void)std::frexp(largest, &largest_exp);  // largest < 2^largest_exp
    const auto q = [&](double w) {
      return static_cast<std::int64_t>(
          std::llround(std::ldexp(w, bits - largest_exp)));
    };
    pair_weights_.assign(static_cast<std::size_t>(n_) * n_, 0);
    for (int i = 0; i < n_; ++i)
      for (int j = i + 1; j < n_; ++j) {
        const std::int64_t w =
            q(pair_weights[static_cast<std::size_t>(i) * n_ + j]) +
            q(pair_weights[static_cast<std::size_t>(j) * n_ + i]);
        pair_weights_[static_cast<std::size_t>(i) * n_ + j] = w;
        pair_weights_[static_cast<std::size_t>(j) * n_ + i] = w;
      }
  }
  fold_constant_sums();
}

void RowObjective::fold_constant_sums() {
  dist_sum_ = 0;
  weight_sum_ = 0;
  for (int i = 0; i < n_; ++i)
    for (int j = i + 1; j < n_; ++j) {
      const std::int64_t w =
          pair_weights_.empty()
              ? 1
              : pair_weights_[static_cast<std::size_t>(i) * n_ + j];
      dist_sum_ += w * (j - i);
      weight_sum_ += w;
    }
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
  // The delta evaluator stores hop counts, at most n - 1, in bytes.
  return secondary_weight_ <= 0.0 && n_ <= 256;
}

double RowObjective::score(std::int64_t hop_sum,
                           double max_cost) const noexcept {
  const double average = (hop_.link_cycles_per_unit *
                              static_cast<double>(dist_sum_) +
                          hop_.router_cycles * static_cast<double>(hop_sum)) /
                         static_cast<double>(weight_sum_);
  if (worst_weight_ <= 0.0) return average;
  return (1.0 - worst_weight_) * average + worst_weight_ * max_cost;
}

double RowObjective::evaluate(const topo::RowTopology& row) const {
  XLP_REQUIRE(row.size() == n_, "placement size does not match objective");
  count_evaluation();
  return evaluate_uncounted(row);
}

double RowObjective::evaluate_uncounted(const topo::RowTopology& row) const {
  const route::DirectionalShortestPaths paths(row, hop_);
  std::int64_t hop_sum = 0;  // SH over pairs i < j
  for (int i = 0; i + 1 < n_; ++i) {
    const int* hops = paths.hops_row(i);
    if (pair_weights_.empty()) {
      for (int j = i + 1; j < n_; ++j) hop_sum += hops[j];
    } else {
      const std::int64_t* w =
          pair_weights_.data() + static_cast<std::size_t>(i) * n_;
      for (int j = i + 1; j < n_; ++j) hop_sum += w[j] * hops[j];
    }
  }
  const double primary =
      score(hop_sum, worst_weight_ > 0.0 ? paths.max_cost() : 0.0);
  if (secondary_weight_ <= 0.0) return primary;
  return (1.0 - secondary_weight_) * primary +
         secondary_weight_ * secondary_(row);
}

RowObjective RowObjective::sub_objective(int lo, int len) const {
  XLP_REQUIRE(lo >= 0 && len >= 2 && lo + len <= n_,
              "sub-row out of range");
  RowObjective sub(len, hop_);
  if (!pair_weights_.empty()) {
    // The slice keeps this objective's integer weights, so the sub-row is
    // scored on the same grid; an all-zero slice stays uniform.
    std::vector<std::int64_t> w(static_cast<std::size_t>(len) * len);
    for (int i = 0; i < len; ++i)
      for (int j = 0; j < len; ++j)
        w[static_cast<std::size_t>(i) * len + j] =
            pair_weights_[static_cast<std::size_t>(lo + i) * n_ + (lo + j)];
    if (std::any_of(w.begin(), w.end(),
                    [](std::int64_t x) { return x > 0; })) {
      sub.pair_weights_ = std::move(w);
      sub.fold_constant_sums();
    }
  }
  sub.evals_ = evals_;  // attribute recursive work to the root objective
  sub.worst_weight_ = worst_weight_;
  sub.secondary_weight_ = secondary_weight_;
  sub.secondary_ = secondary_;
  return sub;
}

}  // namespace xlp::core
