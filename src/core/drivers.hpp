#pragma once

#include <string>

#include "core/dnc.hpp"
#include "core/objective.hpp"
#include "core/sa.hpp"
#include "util/rng.hpp"

namespace xlp::core {

/// A solved 1D placement plus the bookkeeping the evaluation section needs.
struct PlacementResult {
  topo::RowTopology placement = topo::RowTopology(2);
  double value = 0.0;        // objective (average row head latency)
  long evaluations = 0;      // objective evaluations consumed
  double seconds = 0.0;      // wall-clock time
  std::string method;
  /// kCompleted for a full run; kDeadline / kInterrupted when a
  /// RunControl stopped the search early (the placement is then the best
  /// feasible solution found before the stop).
  runctl::RunStatus status = runctl::RunStatus::kCompleted;
  /// Engaged when an annealing phase stopped early: the state to persist
  /// for resume_sa / `xlp run --resume`.
  std::optional<runctl::SaCheckpoint> checkpoint;
};

/// OnlySA (Section 5.1, comparison scheme 3): simulated annealing over the
/// connection-matrix space from a *random* initial placement.
[[nodiscard]] PlacementResult solve_only_sa(const RowObjective& objective,
                                            int link_limit,
                                            const SaParams& params, Rng& rng);

/// D&C_SA (comparison scheme 4, the paper's proposal): simulated annealing
/// seeded with the divide-and-conquer initial solution I(n, C).
[[nodiscard]] PlacementResult solve_dcsa(const RowObjective& objective,
                                         int link_limit,
                                         const SaParams& params, Rng& rng,
                                         const DncOptions& dnc = {});

/// The initializer alone (no annealing): used to normalize runtimes in
/// Fig. 7 and as a cheap standalone heuristic.
[[nodiscard]] PlacementResult solve_dnc_only(const RowObjective& objective,
                                             int link_limit,
                                             const DncOptions& dnc = {});

/// The exact optimum by branch and bound (small n only). `control` (may be
/// null) can stop it early; the result is then best-so-far.
[[nodiscard]] PlacementResult solve_exact(const RowObjective& objective,
                                          int link_limit,
                                          runctl::RunControl* control = nullptr);

/// Continues an annealing run from a saved checkpoint. The cooling
/// schedule is rebuilt from the checkpoint (so the trajectory matches the
/// uninterrupted run bit-for-bit); only the runtime hooks of `hooks` —
/// observer, control, checkpoint sink/cadence — are honoured. The
/// objective must describe the same P(n, C) instance the checkpoint was
/// taken for.
[[nodiscard]] PlacementResult resume_sa(const RowObjective& objective,
                                        const runctl::SaCheckpoint& ckpt,
                                        const SaParams& hooks = {});

}  // namespace xlp::core
