#pragma once

#include <optional>
#include <vector>

#include "core/drivers.hpp"
#include "latency/model.hpp"
#include "topo/builders.hpp"
#include "traffic/flows.hpp"

namespace xlp::core {

/// One design point of the Fig. 5 curve: the best placement found for a
/// given link limit C, packaged with its flit width and its analytic
/// latency breakdown.
struct SweepPoint {
  int link_limit = 1;
  PlacementResult placement;
  topo::ExpressMesh design{topo::RowTopology(2), 1, 1};
  latency::LatencyBreakdown breakdown;
};

struct SweepOptions {
  Solver solver = Solver::kDcsa;  // the algorithm every link limit uses
  SaParams sa;
  DncOptions dnc;
  latency::LatencyParams latency = latency::LatencyParams::parsec_typical();
  int base_flit_bits = topo::kBaseFlitBits;
  /// When set, the reported latency breakdown is weighted by this demand
  /// (e.g. the PARSEC-average workload); the *placement* is still optimized
  /// for the uniform general-purpose objective, as in the paper.
  std::optional<traffic::Flows> report_traffic;
};

/// The paper's overall flow (Section 4, opening): enumerate the possible
/// link limits C, solve P̄(n, C) for each, and compare total latencies to
/// find the best design. Limits that do not divide the baseline flit width
/// are skipped (the flit must remain an integer number of bits). A
/// rectangular network (width != height) solves *two* 1D problems per
/// limit — P̄(width, C) for the rows, then P̄(height, C) for the columns on
/// the same stream, each capped at its own C_full — and the point's
/// placement is the rows' with both solves' evaluations; a square one
/// solves once and uses the placement for rows and columns alike. The
/// limits are independent cells on util::default_thread_count() workers;
/// each draws from its own stream forked off `rng` in cell order, so the
/// result and `rng`'s state afterwards are identical for any thread count
/// (see docs/parallelism.md).
[[nodiscard]] std::vector<SweepPoint> sweep_link_limits(
    int width, int height, const SweepOptions& options, Rng& rng);

/// Index of the sweep point with the lowest total average latency.
[[nodiscard]] std::size_t best_point(const std::vector<SweepPoint>& points);

/// Evaluates a fixed design (Mesh, HFB, ...) under the same latency params
/// and optional report weighting, so fixed topologies and sweep points are
/// comparable.
[[nodiscard]] latency::LatencyBreakdown evaluate_design(
    const topo::ExpressMesh& design, const latency::LatencyParams& params,
    const std::optional<traffic::Flows>& report_traffic);

}  // namespace xlp::core
