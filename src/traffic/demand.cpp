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
    // Four hubs at the quarter points absorb 20% of the traffic.
    const int q = n / 4;
    hubs_ = {q * n + q, q * n + (n - 1 - q), (n - 1 - q) * n + q,
             (n - 1 - q) * n + (n - 1 - q)};
  } else if (pattern != Pattern::kUniformRandom) {
    dest_.reserve(static_cast<std::size_t>(node_count()));
    for (int src = 0; src < node_count(); ++src) {
      const auto dest = pattern_destination(pattern, src, n);
      dest_.push_back(dest ? Node{*dest % n, *dest / n} : Node{-1, -1});
    }
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

  // The decay of (|dx - sx| + |dy - sy|) is decay(|dx - sx|) times
  // decay(|dy - sy|), so a source's decay over all nodes is the product of
  // two line sums, and its normalization that product less its own 1.
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int j = 0; j < n; ++j) sum += decay_[std::abs(j - i)];
    line_decay_.push_back(sum);
  }
  for (int sy = 0; sy < n; ++sy)
    for (int sx = 0; sx < n; ++sx)
      inv_norm_.push_back(1.0 / (line_decay_[sx] * line_decay_[sy] - 1.0));
  for (int j = 0; j <= 2 * n - 2; ++j)
    mirrored_decay_.push_back(decay_[std::abs(j - (n - 1))]);
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
    // 20% to the four hubs, 80% uniform over all nodes (the self-directed
    // share is dropped, so slightly less than the nominal rate enters the
    // network). Hub adds come first.
    for (const int hub : hubs_)
      if (hub != src) row[hub] += rate_ * 0.2 / 4.0;
    const double uniform = rate_ * 0.8 / nodes;
    for (int dst = 0; dst < nodes; ++dst)
      if (dst != src) row[dst] += uniform;
  } else if (const Node dest = dest_[static_cast<std::size_t>(src)];
             dest.x >= 0) {
    row[static_cast<std::size_t>(dest.y) * n_ + dest.x] = rate_;
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

DemandRows::Shares DemandRows::shares() const {
  if (!pattern_) {
    Shares model{model_.injection_rate * uniform_,
                 model_.injection_rate * model_.locality, 0.0};
    if (model_.hotspot_share > 0.0)
      model.hub = model_.injection_rate * model_.hotspot_share /
                  static_cast<double>(hubs_.size());
    return model;
  }
  if (*pattern_ == Pattern::kHotspot)
    return {rate_ * 0.8 / node_count(), 0.0, rate_ * 0.2 / 4.0};
  XLP_CHECK(*pattern_ == Pattern::kUniformRandom,
            "a permutation's blocks come from its destinations");
  return {1.0, 0.0, 0.0};  // UR: pair counts, the common rate dropped
}

void DemandRows::line_entries(int a, const Shares& share, double coef,
                              double across, double self,
                              double* out) const {
  const double full = share.pair * n_;
  if (coef > 0.0) {
    const double* decay =
        mirrored_decay_.data() + (n_ - 1 - a);  // decay[b]: |b - a| apart
    for (int b = 0; b < n_; ++b) out[b] = full + coef * (decay[b] * across);
  } else {
    std::fill(out, out + n_, full);
  }
  out[a] = share.pair * (n_ - 1) + coef * (across - self);
}

void DemandRows::row_block(int y, std::span<double> block) const {
  XLP_REQUIRE(y >= 0 && y < n_, "row out of range");
  XLP_REQUIRE(block.size() == static_cast<std::size_t>(n_) * n_,
              "a line block has n * n entries");
  if (!dest_.empty()) {
    std::fill(block.begin(), block.end(), 0.0);
    for (int sx = 0; sx < n_; ++sx)
      if (const Node dest = dest_[static_cast<std::size_t>(y) * n_ + sx];
          dest.x >= 0)
        block[static_cast<std::size_t>(sx) * n_ + dest.x] += rate_;
    return;
  }
  const Shares share = shares();
  for (int sx = 0; sx < n_; ++sx) {
    // (sx, y) sends decay(|dx - sx|) * decay(|dy - y|) / norm(sx, y) of its
    // locality share to (dx, dy); summed over dy that is decay(|dx - sx|)
    // times row y's line sum, less its own pair on the diagonal.
    const double coef =
        share.local > 0.0
            ? share.local * inv_norm_[static_cast<std::size_t>(y) * n_ + sx]
            : 0.0;
    line_entries(sx, share, coef, coef > 0.0 ? line_decay_[y] : 0.0, 1.0,
                 block.data() + static_cast<std::size_t>(sx) * n_);
  }
  // Traffic to a hub that happens to equal the source stays off the
  // network.
  for (const int hub : hubs_) {
    const int hx = hub % n_;
    for (int sx = 0; sx < n_; ++sx)
      if (hub != y * n_ + sx)
        block[static_cast<std::size_t>(sx) * n_ + hx] += share.hub;
  }
}

void DemandRows::col_block(int x, std::span<double> block) const {
  XLP_REQUIRE(x >= 0 && x < n_, "column out of range");
  XLP_REQUIRE(block.size() == static_cast<std::size_t>(n_) * n_,
              "a line block has n * n entries");
  if (!dest_.empty()) {
    std::fill(block.begin(), block.end(), 0.0);
    for (int sy = 0, src = 0; sy < n_; ++sy)
      for (int sx = 0; sx < n_; ++sx, ++src)
        if (const Node dest = dest_[static_cast<std::size_t>(src)];
            dest.x == x)
          block[static_cast<std::size_t>(sy) * n_ + dest.y] += rate_;
    return;
  }
  const Shares share = shares();
  const double* toward_x = mirrored_decay_.data() + (n_ - 1 - x);
  for (int sy = 0; sy < n_; ++sy) {
    // Each source (sx, sy) sends decay(|x - sx|) / norm(sx, sy) of its
    // locality share towards column x, spread over the rows by
    // decay(|dy - sy|); the self pair (x, sy) is taken out again.
    double toward = 0.0;
    double self = 0.0;
    if (share.local > 0.0) {
      const double* inv_norm =
          inv_norm_.data() + static_cast<std::size_t>(sy) * n_;
      for (int sx = 0; sx < n_; ++sx) toward += toward_x[sx] * inv_norm[sx];
      self = inv_norm[x];
    }
    line_entries(sy, share, share.local, toward, self,
                 block.data() + static_cast<std::size_t>(sy) * n_);
  }
  for (const int hub : hubs_) {
    if (hub % n_ != x) continue;
    const int hy = hub / n_;
    for (int sy = 0; sy < n_; ++sy)
      block[static_cast<std::size_t>(sy) * n_ + hy] +=
          share.hub * (n_ - (sy == hy ? 1 : 0));
  }
}

DemandRows workload_rows(const std::string& name, int n, double load) {
  XLP_REQUIRE(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
  if (const auto pattern = pattern_from_string(name))
    return DemandRows(*pattern, n, load);
  return DemandRows(parsec_model(name), n);
}

}  // namespace xlp::traffic
