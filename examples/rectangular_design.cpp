// Rectangular networks: many CMPs are wider than they are tall (e.g. 8x4
// tiles beside a memory controller column). The 2D->1D reduction still
// holds — rows and columns are just different 1D problems — so the toolkit
// optimizes P̄(width, C) and P̄(height, C) separately and replicates.
//
//   $ ./rectangular_design [width=8] [height=4] [moves=5000]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/c_sweep.hpp"
#include "latency/model.hpp"
#include "topo/builders.hpp"
#include "util/table.hpp"

using namespace xlp;

int main(int argc, char** argv) {
  const int width = argc > 1 ? std::atoi(argv[1]) : 8;
  const int height = argc > 2 ? std::atoi(argv[2]) : 4;
  const long moves = argc > 3 ? std::atol(argv[3]) : 5000;

  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(moves);
  options.latency = latency::LatencyParams::zero_load();
  Rng rng(1);
  const auto points = core::sweep_link_limits(width, height, options, rng);

  std::printf("%dx%d design space\n\n", width, height);
  Table table({"C", "flit", "avg latency", "row placement", "col placement"});
  for (const auto& p : points)
    table.add_row({std::to_string(p.link_limit),
                   std::to_string(p.design.flit_bits()),
                   Table::fmt(p.breakdown.total()),
                   p.design.row(0).to_string(),
                   p.design.col(0).to_string()});
  table.print(std::cout);

  const auto& best = points[core::best_point(points)];
  const double mesh_total =
      core::evaluate_design(topo::make_rect_mesh(width, height),
                            options.latency, {})
          .total();
  std::printf("\nbest: C=%d at %.2f cycles (plain %dx%d mesh: %.2f, "
              "-%.1f%%)\n",
              best.link_limit, best.breakdown.total(), width, height,
              mesh_total,
              100.0 * (1.0 - best.breakdown.total() / mesh_total));
  return 0;
}
