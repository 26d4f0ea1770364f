// Application-specific placement (Section 5.6.4): given a known workload —
// a PARSEC model name or a synthetic pattern — optimize each row and column
// with its own demand-weighted objective and compare against the
// general-purpose design.
//
//   $ ./app_specific_placement canneal
//   $ ./app_specific_placement transpose
//   $ ./app_specific_placement hotspot 16

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/app_specific.hpp"
#include "core/c_sweep.hpp"
#include "traffic/app_models.hpp"

using namespace xlp;

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "canneal";
  const int side = argc > 2 ? std::atoi(argv[2]) : 8;

  if (!traffic::is_known_workload(workload)) {
    std::fprintf(stderr, "unknown workload '%s' (PARSEC name or pattern)\n",
                 workload.c_str());
    return 1;
  }
  const auto demand = traffic::resolve_workload(workload, side, 0.02);

  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(2000);
  options.latency = latency::LatencyParams::zero_load();
  options.report_traffic = demand;

  // General-purpose design evaluated on this demand.
  Rng gp_rng(9);
  const auto gp = core::sweep_link_limits(side, side, options, gp_rng);
  const auto& gp_best = gp[core::best_point(gp)];

  // Application-specific design.
  Rng app_rng(10);
  const auto app = core::solve_app_specific(demand, options, app_rng);

  std::printf("workload %s on %dx%d (offered %.3f packets/cycle total)\n\n",
              workload.c_str(), side, side, demand.total_rate());
  std::printf("general-purpose: C=%d  avg latency %.2f cycles  row %s\n",
              gp_best.link_limit, gp_best.breakdown.total(),
              gp_best.placement.placement.to_string().c_str());
  std::printf("app-specific:    C=%d  avg latency %.2f cycles "
              "(%.1f%% further reduction)\n\n",
              app.link_limit, app.breakdown.total(),
              100.0 * (1.0 - app.breakdown.total() /
                                 gp_best.breakdown.total()));

  std::printf("per-row / per-column placements of the app-specific "
              "design:\n");
  for (int y = 0; y < side; ++y)
    std::printf("  row %2d: %s\n", y, app.design.row(y).to_string().c_str());
  for (int x = 0; x < side; ++x)
    std::printf("  col %2d: %s\n", x, app.design.col(x).to_string().c_str());
  return 0;
}
