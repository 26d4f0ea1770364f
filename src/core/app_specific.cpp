#include "core/app_specific.hpp"

#include <vector>

#include "topo/builders.hpp"
#include "util/check.hpp"

namespace xlp::core {

AppSpecificResult solve_app_specific_for_limit(
    const latency::LineDemand& demand, int link_limit,
    const SweepOptions& options, Rng& rng) {
  const int w = demand.width();
  const int h = demand.height();
  XLP_REQUIRE(options.base_flit_bits % link_limit == 0,
              "link limit must divide the baseline flit width");

  long evaluations = 0;
  runctl::RunStatus status = runctl::RunStatus::kCompleted;
  // A line's weights are its block without the diagonal, whose pairs have
  // no segment on this line.
  auto solve_line = [&](int length, std::vector<double> weights) {
    for (int a = 0; a < length; ++a)
      weights[static_cast<std::size_t>(a) * length + a] = 0.0;
    const RowObjective objective(length, options.latency.hop,
                                 std::move(weights));
    PlacementResult result = solve_row(objective, link_limit, options.solver,
                                       options.sa, options.dnc, rng);
    evaluations += result.evaluations;
    if (status == runctl::RunStatus::kCompleted) status = result.status;
    return result.placement;
  };

  std::vector<topo::RowTopology> rows;
  std::vector<topo::RowTopology> cols;
  rows.reserve(static_cast<std::size_t>(h));
  cols.reserve(static_cast<std::size_t>(w));
  for (int y = 0; y < h; ++y) {
    std::vector<double> block(static_cast<std::size_t>(w) * w);
    demand.row_block(y, block);
    rows.push_back(solve_line(w, std::move(block)));
  }
  for (int x = 0; x < w; ++x) {
    std::vector<double> block(static_cast<std::size_t>(h) * h);
    demand.col_block(x, block);
    cols.push_back(solve_line(h, std::move(block)));
  }

  topo::ExpressMesh design(
      std::move(rows), std::move(cols), link_limit,
      topo::flit_bits_for_limit(link_limit, options.base_flit_bits));

  const latency::LatencyBreakdown breakdown =
      latency::MeshLatencyModel(design, options.latency)
          .weighted_average(demand);
  return {std::move(design), breakdown, link_limit, evaluations, status};
}

AppSpecificResult solve_app_specific(const latency::LineDemand& demand,
                                     const SweepOptions& options, Rng& rng) {
  // Feasible limits are bounded by the shorter dimension's C_full.
  const int n = std::min(demand.width(), demand.height());
  AppSpecificResult best;
  bool first = true;
  runctl::RunStatus status = runctl::RunStatus::kCompleted;
  for (const int limit : topo::valid_link_limits(n)) {
    if (options.base_flit_bits % limit != 0) continue;
    AppSpecificResult candidate =
        solve_app_specific_for_limit(demand, limit, options, rng);
    if (status == runctl::RunStatus::kCompleted) status = candidate.status;
    if (first || candidate.breakdown.total() < best.breakdown.total()) {
      best = std::move(candidate);
      first = false;
    }
  }
  XLP_CHECK(!first, "no feasible link limit found");
  best.status = status;
  return best;
}

}  // namespace xlp::core
