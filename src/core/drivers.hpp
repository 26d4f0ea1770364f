#pragma once

#include <optional>
#include <string>
#include <string_view>

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
  /// for a resumed solve_row / `xlp run --resume`.
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

/// The placement algorithms above, by the names requests and checkpoints
/// use for them.
enum class Solver { kDcsa, kOnlySa, kDncOnly, kExact };

/// "dcsa", "onlysa", "dnc" or "exact".
[[nodiscard]] const char* to_string(Solver solver) noexcept;
/// Inverse of to_string; nullopt for any other text. With `by_method`,
/// parses the PlacementResult::method the solver's results carry instead
/// ("D&C_SA", "OnlySA", "D&C", "exact"), as SA checkpoints record it.
[[nodiscard]] std::optional<Solver> parse_solver(
    std::string_view text, bool by_method = false) noexcept;
/// D&C_SA and OnlySA anneal: they take a move budget, run as portfolio
/// chains and write checkpoints.
[[nodiscard]] bool is_annealed(Solver solver) noexcept;

/// Solves P̄(n, C) with `solver` — the one dispatch that sweep cells,
/// portfolio chains, application-specific rows and svc::solve share
/// (solve_only_sa and solve_dcsa are its fixed-solver forms). The D&C
/// phases stop on `dnc.control`, or on `sa.control` when that is null.
/// Both are polled through private copies (RunControl's poll stride is
/// per-thread state; the token and deadline stay shared), so solves on
/// pool workers may pass the same params.
///
/// With `resume` set, the call continues that annealer snapshot for the
/// same P(n, C) instead, whatever the solver: the schedule, the label and
/// the `rng` state come from the checkpoint (so the trajectory matches the
/// uninterrupted run bit for bit), and those fields of `sa` are ignored.
[[nodiscard]] PlacementResult solve_row(
    const RowObjective& objective, int link_limit, Solver solver,
    const SaParams& sa, const DncOptions& dnc, Rng& rng,
    const runctl::SaCheckpoint* resume = nullptr);

}  // namespace xlp::core
