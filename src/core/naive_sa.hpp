#pragma once

#include "core/sa.hpp"

namespace xlp::core {

/// Outcome of the naive-neighborhood annealer, with the extra accounting
/// the connection-matrix design makes unnecessary.
struct NaiveSaResult {
  topo::RowTopology best;
  double best_value = 0.0;
  long moves = 0;           // moves that produced a *valid* candidate
  long invalid_moves = 0;   // candidates rejected for violating the limit
  long accepted = 0;
  /// kCompleted unless SaParams::control stopped the loop early; the best
  /// placement is valid either way.
  runctl::RunStatus status = runctl::RunStatus::kCompleted;
};

/// The strawman candidate generator the paper argues against (Section
/// 4.4.2): each move adds, deletes, stretches, or shortens a randomly
/// selected link directly on the link set. Candidates that violate the
/// cross-section limit are discarded — those attempts still consume move
/// budget, which is precisely the inefficiency the connection-matrix space
/// eliminates. Kept as an ablation baseline (ablation/generators).
[[nodiscard]] NaiveSaResult anneal_naive_links(const topo::RowTopology& initial,
                                               const RowObjective& objective,
                                               int link_limit,
                                               const SaParams& params,
                                               Rng& rng);

}  // namespace xlp::core
