#include "traffic/demand.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace xlp::traffic {

DemandRows::DemandRows(Pattern pattern, int n,
                       double per_node_packets_per_cycle)
    : n_(n), pattern_(pattern), rate_(per_node_packets_per_cycle) {
  XLP_REQUIRE(n >= 2, "network dimensions must be at least 2");
  XLP_REQUIRE(per_node_packets_per_cycle >= 0.0,
              "injection rate must be non-negative");
  if (const char* unfit = pattern_unfit(pattern, n)) XLP_FAIL(unfit);
  if (pattern == Pattern::kHotspot) {
    // Mirror pattern_destination(): four hubs at the quarter points.
    const int q = n / 4;
    hubs_ = {q * n + q, q * n + (n - 1 - q), (n - 1 - q) * n + q,
             (n - 1 - q) * n + (n - 1 - q)};
  }
}

DemandRows::DemandRows(const AppModel& model, int n) : n_(n), model_(model) {
  XLP_REQUIRE(n >= 2, "network dimensions must be at least 2");
  XLP_REQUIRE(model.injection_rate >= 0.0,
              "injection rate must be non-negative");
  XLP_REQUIRE(model.locality >= 0.0 && model.hotspot_share >= 0.0 &&
                  model.locality + model.hotspot_share <= 1.0,
              "traffic shares must be non-negative and sum to at most 1");
  const int nodes = node_count();

  // Hubs are a deterministic function of the benchmark name so that each
  // workload has a stable personality across runs and network sizes.
  std::uint64_t name_hash = 1469598103934665603ULL;
  for (const char ch : model.name) {
    name_hash ^= static_cast<unsigned char>(ch);
    name_hash *= 1099511628211ULL;
  }
  Rng hub_rng(name_hash);
  for (int h = 0; h < model.hub_count; ++h)
    hubs_.push_back(static_cast<int>(hub_rng.uniform_below(nodes)));

  // Locality weights decay exponentially in Manhattan distance, which is
  // at most 2n - 2.
  for (int d = 0; d <= 2 * n - 2; ++d)
    decay_.push_back(
        std::exp(-static_cast<double>(d) / model.locality_scale));
  const double uniform_share = 1.0 - model.locality - model.hotspot_share;
  uniform_ = uniform_share / (nodes - 1);
}

void DemandRows::fill(int src, std::span<double> row) const {
  const int nodes = node_count();
  XLP_REQUIRE(src >= 0 && src < nodes, "node out of range");
  XLP_REQUIRE(row.size() == static_cast<std::size_t>(nodes),
              "a demand row has one entry per node");
  std::fill(row.begin(), row.end(), 0.0);
  if (!pattern_) {
    fill_model(src, row);
  } else if (*pattern_ == Pattern::kUniformRandom) {
    const double rate = rate_ / (nodes - 1);
    for (int dst = 0; dst < nodes; ++dst)
      if (dst != src) row[dst] = rate;
  } else if (*pattern_ == Pattern::kHotspot) {
    // 20% to the four hubs, 80% uniform over all nodes (self-directed
    // draws are dropped, so slightly less than the nominal rate enters the
    // network — same as the sampler). Hub adds come first.
    for (const int hub : hubs_)
      if (hub != src) row[hub] += rate_ * 0.2 / 4.0;
    const double uniform = rate_ * 0.8 / nodes;
    for (int dst = 0; dst < nodes; ++dst)
      if (dst != src) row[dst] += uniform;
  } else {
    Rng unused(0);
    if (const auto dest = pattern_destination(*pattern_, src, n_, unused))
      row[*dest] = rate_;
  }
  XLP_CHECK(row[src] == 0.0, "self-traffic does not enter the network");
}

void DemandRows::fill_model(int src, std::span<double> row) const {
  const int sx = src % n_;
  const int sy = src / n_;
  double local_norm = 0.0;
  for (int dy = 0, dst = 0; dy < n_; ++dy)
    for (int dx = 0; dx < n_; ++dx, ++dst)
      if (dst != src)
        local_norm += decay_[std::abs(dx - sx) + std::abs(dy - sy)];
  // A destination's rate depends on its distance alone: one value per
  // distance, each computed as the per-destination expression would be.
  std::vector<double> rate_at(decay_.size());
  for (std::size_t d = 0; d < decay_.size(); ++d) {
    const double local_w = decay_[d] / local_norm;
    rate_at[d] =
        model_.injection_rate * (model_.locality * local_w + uniform_);
  }
  for (int dy = 0, dst = 0; dy < n_; ++dy)
    for (int dx = 0; dx < n_; ++dx, ++dst)
      if (dst != src)
        row[dst] += rate_at[std::abs(dx - sx) + std::abs(dy - sy)];
  if (model_.hotspot_share > 0.0) {
    // Traffic to a hub that happens to equal src stays off the network.
    for (const int hub : hubs_)
      if (hub != src)
        row[hub] += model_.injection_rate * model_.hotspot_share /
                    static_cast<double>(hubs_.size());
  }
}

TrafficMatrix DemandRows::matrix() const {
  TrafficMatrix m(n_);
  std::vector<double> row(static_cast<std::size_t>(node_count()));
  for (int src = 0; src < node_count(); ++src) {
    fill(src, row);
    m.set_row(src, row);
  }
  return m;
}

DemandRows workload_rows(const std::string& name, int n, double load) {
  XLP_REQUIRE(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
  if (const auto pattern = pattern_from_string(name))
    return DemandRows(*pattern, n, load);
  return DemandRows(parsec_model(name), n);
}

}  // namespace xlp::traffic
