#include "core/c_sweep.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace xlp::core {

latency::LatencyBreakdown evaluate_design(
    const topo::ExpressMesh& design, const latency::LatencyParams& params,
    const std::optional<traffic::Flows>& report_traffic) {
  const latency::MeshLatencyModel model(design, params);
  return report_traffic ? model.weighted_average(*report_traffic)
                        : model.average();
}

std::vector<SweepPoint> sweep_link_limits(int width, int height,
                                          const SweepOptions& options,
                                          Rng& rng) {
  XLP_REQUIRE(width >= 2 && height >= 2,
              "network dimensions must be at least 2");
  // Feasible cells: the valid link limits that keep the flit an integer
  // number of bits.
  std::vector<int> limits;
  for (const int limit : topo::valid_link_limits(std::max(width, height)))
    if (options.base_flit_bits % limit == 0) limits.push_back(limit);
  XLP_CHECK(!limits.empty(), "no feasible link limit found");

  // One decorrelated stream per cell, forked up front in cell order: the
  // sweep result is a function of the caller's rng state alone, identical
  // for any thread count, and the caller's rng advances the same way
  // whether or not the cells run concurrently.
  std::vector<Rng> streams;
  streams.reserve(limits.size());
  for (std::size_t i = 0; i < limits.size(); ++i)
    streams.push_back(rng.fork(static_cast<std::uint64_t>(i)));

  std::vector<SweepPoint> points(limits.size());
  const auto cells = static_cast<long>(limits.size());
  util::ThreadPool pool(0, cells);
  pool.parallel_for(cells, [&](long i) {
    const auto cell = static_cast<std::size_t>(i);
    const int limit = limits[cell];
    // Per-dimension objective: its evaluation counter is not shareable
    // across threads (solvers report per-call deltas, so counts are
    // unchanged). Each dimension uses cross-section up to its own C_full.
    const auto solve_dimension = [&](int length) {
      const RowObjective objective(length, options.latency.hop);
      return solve_row(objective,
                       std::min(limit, topo::full_link_limit(length)),
                       options.solver, options.sa, options.dnc,
                       streams[cell]);
    };
    SweepPoint& point = points[cell];
    point.link_limit = limit;
    point.placement = solve_dimension(width);
    topo::RowTopology cols = point.placement.placement;
    if (height != width) {
      PlacementResult col_placement = solve_dimension(height);
      point.placement.evaluations += col_placement.evaluations;
      cols = std::move(col_placement.placement);
    }
    point.design = topo::make_rect_design(point.placement.placement, cols,
                                          limit, options.base_flit_bits);
    point.breakdown =
        evaluate_design(point.design, options.latency, options.report_traffic);
  });
  return points;
}

std::size_t best_point(const std::vector<SweepPoint>& points) {
  XLP_REQUIRE(!points.empty(), "empty sweep");
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i)
    if (points[i].breakdown.total() < points[best].breakdown.total())
      best = i;
  return best;
}

}  // namespace xlp::core
