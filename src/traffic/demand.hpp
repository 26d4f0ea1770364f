#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "latency/line_demand.hpp"
#include "traffic/app_models.hpp"
#include "traffic/patterns.hpp"

namespace xlp::traffic {

/// A workload's demand: its source rows, which the packet sampler
/// (traffic::Injection) draws from, and its line blocks, which the latency
/// model folds.
class Demand : public latency::LineDemand {
 public:
  /// Writes the rates from `src` to every node into `row`, which holds
  /// width() * height() entries.
  virtual void fill(int src, std::span<double> row) const = 0;
};

/// A workload's demand, generated without a per-pair table. This is the one
/// generator of every pattern's and PARSEC model's rates: the packet
/// sampler draws from the source rows (fill()), and the latency model folds
/// the line blocks, each made in closed form in O(n^2) time and memory:
///   - UR's blocks are exact pair counts (the common scale is dropped);
///   - hotspot's and a PARSEC model's uniform share is a pair count times
///     a rate, and each hub adds one point mass per source;
///   - a permutation adds one entry per source;
///   - a PARSEC model's locality decay exp(-(|dx| + |dy|) / s) factors into
///     an x and a y term, and its per-source normalization is a product of
///     two 1-D sums less the self term.
/// A block agrees to rounding with the same block folded from fill()'s rows.
class DemandRows final : public Demand {
 public:
  /// Expected rates of a synthetic pattern at the given per-node injection
  /// rate. Stochastic patterns (UR, hotspot) use their exact expected
  /// distribution, not a sampled one. Throws PreconditionError on a
  /// negative rate or when pattern_unfit(pattern, n).
  DemandRows(Pattern pattern, int n, double per_node_packets_per_cycle);

  /// Expected rates of a PARSEC model on an n x n network.
  DemandRows(const AppModel& model, int n);

  [[nodiscard]] int node_count() const noexcept { return n_ * n_; }
  [[nodiscard]] int width() const override { return n_; }
  [[nodiscard]] int height() const override { return n_; }

  /// Writes the rates from `src` to every node into `row`, which holds
  /// node_count() entries; row[src] is zero.
  void fill(int src, std::span<double> row) const override;

  void row_block(int y, std::span<double> block) const override;
  void col_block(int x, std::span<double> block) const override;

 private:
  /// Per-pair shares of a non-permutation demand: `pair` on every ordered
  /// pair, `local` times the normalized decay, `hub` on each hub.
  struct Shares {
    double pair = 0.0;
    double local = 0.0;
    double hub = 0.0;
  };

  /// A node's coordinates.
  struct Node {
    int x;
    int y;
  };

  void fill_model(int src, std::span<double> row) const;
  [[nodiscard]] Shares shares() const;
  /// Row a of a line block, out[b] for every b: the uniform share of the n
  /// pairs across the line (n - 1 on the diagonal, where the line's own
  /// node is), plus coef * decay(|b - a|) * across, less coef * self on the
  /// diagonal.
  void line_entries(int a, const Shares& share, double coef, double across,
                    double self, double* out) const;

  int n_;
  std::optional<Pattern> pattern_;  ///< unset: the PARSEC model's rows
  double rate_ = 0.0;               ///< a pattern's packets/node/cycle
  AppModel model_;
  std::vector<int> hubs_;       ///< hotspot pattern or model hub nodes
  std::vector<double> decay_;   ///< model: exp(-d / locality_scale) by d
  double uniform_ = 0.0;        ///< model: uniform share per destination
  std::vector<double> line_decay_;  ///< model: sum_j decay(|j - i|) by i
  /// model: decay(|j - (n - 1)|) by j in [0, 2n - 2], so that
  /// mirrored_decay_[n - 1 - a + b] is decay(|b - a|)
  std::vector<double> mirrored_decay_;
  /// model: 1 / (the decay from (sx, sy) to every other node) by sy * n + sx
  std::vector<double> inv_norm_;
  /// permutation: each source's destination, x = -1 for none
  std::vector<Node> dest_;
};

/// A workload's rows on an n x n network: a synthetic pattern at `load`
/// packets/node/cycle, or a PARSEC model at its own injection rate. Throws
/// PreconditionError when `load` is outside (0, 1] (for either kind), the
/// name is unknown or workload_unfit(name, n).
[[nodiscard]] DemandRows workload_rows(const std::string& name, int n,
                                       double load);

}  // namespace xlp::traffic
