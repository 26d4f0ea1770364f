#pragma once

#include "core/c_sweep.hpp"
#include "latency/line_demand.hpp"

namespace xlp::core {

/// Application-specific placement (Section 5.6.4): when the demand gamma is
/// known, each row and each column gets its *own* placement, optimized for
/// the demand that dimension-order routing actually puts on it: row y's
/// weights are its line block A_y and column x's are B_x (Section 4.2's
/// 2D->1D reduction), each without the diagonal, whose pairs have no
/// segment on that line.
struct AppSpecificResult {
  topo::ExpressMesh design{topo::RowTopology(2), 1, 1};
  latency::LatencyBreakdown breakdown;  // weighted by the demand
  int link_limit = 1;
  long evaluations = 0;
  /// kCompleted, or how the first of the 2n solves that stopped early
  /// (options.sa.control) ended; a stopped design is best-so-far.
  runctl::RunStatus status = runctl::RunStatus::kCompleted;
};

/// Solves the application-specific problem for one link limit: 2n
/// independent weighted 1D problems (n rows + n columns), each with
/// `options.solver` (D&C_SA by default). The 2n solves run sequentially:
/// they all draw from the one `rng` stream, rows first, then columns.
[[nodiscard]] AppSpecificResult solve_app_specific_for_limit(
    const latency::LineDemand& demand, int link_limit,
    const SweepOptions& options, Rng& rng);

/// Full flow: sweep every feasible link limit and keep the design with the
/// lowest demand-weighted average latency. Its status is the first early
/// stop of any limit's solves.
[[nodiscard]] AppSpecificResult solve_app_specific(
    const latency::LineDemand& demand, const SweepOptions& options,
    Rng& rng);

}  // namespace xlp::core
