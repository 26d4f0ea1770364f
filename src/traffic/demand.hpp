#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "traffic/app_models.hpp"
#include "traffic/matrix.hpp"
#include "traffic/patterns.hpp"

namespace xlp::traffic {

/// A workload's demand generated one source row at a time. This is the one
/// generator of every pattern's and PARSEC model's rates: TrafficMatrix
/// fills itself from these rows, and a consumer that needs one row at a
/// time streams them in O(N) memory instead of the matrix's O(N^2).
class DemandRows {
 public:
  /// Expected rates of a synthetic pattern at the given per-node injection
  /// rate. Stochastic patterns (UR, hotspot) use their exact expected
  /// distribution, not a sampled one. Throws PreconditionError on a
  /// negative rate or when pattern_unfit(pattern, n).
  DemandRows(Pattern pattern, int n, double per_node_packets_per_cycle);

  /// Expected rates of a PARSEC model on an n x n network.
  DemandRows(const AppModel& model, int n);

  [[nodiscard]] int node_count() const noexcept { return n_ * n_; }

  /// Writes the rates from `src` to every node into `row`, which holds
  /// node_count() entries; row[src] is zero.
  void fill(int src, std::span<double> row) const;

  /// The dense matrix of these rows.
  [[nodiscard]] TrafficMatrix matrix() const;

 private:
  void fill_model(int src, std::span<double> row) const;

  int n_;
  std::optional<Pattern> pattern_;  ///< unset: the PARSEC model's rows
  double rate_ = 0.0;               ///< a pattern's packets/node/cycle
  AppModel model_;
  std::vector<int> hubs_;       ///< hotspot pattern or model hub nodes
  std::vector<double> decay_;   ///< model: exp(-d / locality_scale) by d
  double uniform_ = 0.0;        ///< model: uniform share per destination
};

/// A workload's rows on an n x n network: a synthetic pattern at `load`
/// packets/node/cycle, or a PARSEC model at its own injection rate. Throws
/// PreconditionError when `load` is outside (0, 1] (for either kind), the
/// name is unknown or workload_unfit(name, n).
[[nodiscard]] DemandRows workload_rows(const std::string& name, int n,
                                       double load);

}  // namespace xlp::traffic
