// Reproduces Section 5.6.4: application-specific express link placement.
// For each PARSEC model the traffic matrix gamma is collected on the
// baseline (here: taken from the application model, which plays the role of
// the paper's profiling run on the mesh), each row and column is optimized
// with its own weighted objective, and the resulting demand-weighted
// latency is compared against the general-purpose design. The paper
// reports an additional ~18.1% average reduction.

#include <cstdio>
#include <iostream>

#include "core/app_specific.hpp"
#include "exp/scenarios.hpp"
#include "util/numeric.hpp"
#include "util/table.hpp"

using namespace xlp;

int main() {
  std::printf("Section 5.6.4 reproduction — application-specific placement; "
              "paper expectation:\n~18.1%% additional latency reduction over "
              "the general-purpose design.\n\n");

  constexpr int n = 8;
  const double scale = exp::bench_scale();
  core::SweepOptions options;
  options.sa = exp::paper_sa_params().with_moves(
      std::max<long>(100, static_cast<long>(2000 * scale)));
  options.latency = latency::LatencyParams::parsec_typical();

  // General-purpose design (uniform objective), reused for all benchmarks.
  Rng gp_rng(42);
  core::SweepOptions gp_options = options;
  gp_options.sa = exp::paper_sa_params().with_moves(
      std::max<long>(100, static_cast<long>(10000 * scale)));
  const auto gp_points = core::sweep_link_limits(n, n, gp_options, gp_rng);

  Table table({"benchmark", "general-purpose", "app-specific", "extra cut",
               "C(app)"});
  double total_reduction = 0.0;
  for (const auto& model : traffic::parsec_models()) {
    const auto demand = model.traffic_matrix(n);

    // Evaluate every general-purpose point on this workload, take the best.
    double gp_best = 0.0;
    bool first = true;
    for (const auto& p : gp_points) {
      const double value =
          core::evaluate_design(p.design, options.latency, demand).total();
      if (first || value < gp_best) gp_best = value;
      first = false;
    }

    Rng rng(static_cast<std::uint64_t>(std::hash<std::string>{}(model.name)));
    const auto app = core::solve_app_specific(demand, options, rng);
    const double reduction = -percent_change(app.breakdown.total(), gp_best);
    total_reduction += reduction;
    table.add_row({model.name, Table::fmt(gp_best),
                   Table::fmt(app.breakdown.total()),
                   Table::fmt(reduction, 1) + "%",
                   std::to_string(app.link_limit)});
  }
  table.print(std::cout);
  std::printf("\naverage additional reduction: %.1f%% (paper: 18.1%%)\n",
              total_reduction / traffic::parsec_models().size());

  // The magnitude of the application-specific win scales with how skewed
  // the traffic is. Our synthetic PARSEC stand-ins are closer to uniform
  // than gem5-measured coherence traffic (see EXPERIMENTS.md), so the same
  // flow is also reported on strongly structured workloads where the
  // per-row/column optimization can express itself.
  std::printf("\n--- strongly skewed workloads (same flow) ---\n");
  Table skewed({"workload", "general-purpose", "app-specific", "extra cut",
                "C(app)"});
  double skew_total = 0.0;
  int skew_count = 0;
  for (const auto pattern :
       {traffic::Pattern::kTranspose, traffic::Pattern::kBitReverse,
        traffic::Pattern::kHotspot, traffic::Pattern::kNeighbor}) {
    const auto demand =
        traffic::TrafficMatrix::from_pattern(pattern, n, 0.02);

    double gp_best = 0.0;
    bool first = true;
    for (const auto& p : gp_points) {
      const double value =
          core::evaluate_design(p.design, options.latency, demand).total();
      if (first || value < gp_best) gp_best = value;
      first = false;
    }
    Rng rng(static_cast<std::uint64_t>(17 + static_cast<int>(pattern)));
    const auto app = core::solve_app_specific(demand, options, rng);
    const double reduction = -percent_change(app.breakdown.total(), gp_best);
    skew_total += reduction;
    ++skew_count;
    skewed.add_row({traffic::to_string(pattern), Table::fmt(gp_best),
                    Table::fmt(app.breakdown.total()),
                    Table::fmt(reduction, 1) + "%",
                    std::to_string(app.link_limit)});
  }
  skewed.print(std::cout);
  std::printf("\naverage additional reduction on skewed workloads: %.1f%%\n",
              skew_total / skew_count);
  return 0;
}
