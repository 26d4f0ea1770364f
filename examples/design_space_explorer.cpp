// Design-space explorer: sweep the cross-section link limit C for a given
// network size, print the full latency-vs-C curve (the paper's Fig. 5 view)
// with head/serialization decomposition, and describe the winning design in
// detail: placement, ports, worst-case latency, deadlock check, and
// hardware overhead.
//
//   $ ./design_space_explorer [side=8] [sa_moves=10000] [seed=1]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/c_sweep.hpp"
#include "latency/model.hpp"
#include "power/area.hpp"
#include "route/deadlock.hpp"
#include "sim/config.hpp"
#include "topo/builders.hpp"
#include "topo/render.hpp"
#include "util/table.hpp"

using namespace xlp;

int main(int argc, char** argv) {
  const int side = argc > 1 ? std::atoi(argv[1]) : 8;
  const long moves = argc > 2 ? std::atol(argv[2]) : 10000;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                      : 1;
  if (side < 2) {
    std::fprintf(stderr, "usage: %s [side>=2] [sa_moves] [seed]\n", argv[0]);
    return 1;
  }

  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(moves);
  options.latency = latency::LatencyParams::zero_load();
  Rng rng(seed);
  const auto points = core::sweep_link_limits(side, side, options, rng);

  std::printf("design space of the %dx%d network (%zu feasible link "
              "limits)\n\n",
              side, side, points.size());
  Table table({"C", "flit bits", "avg latency", "head", "serialization",
               "evals", "seconds"});
  for (const auto& p : points)
    table.add_row({std::to_string(p.link_limit),
                   std::to_string(p.design.flit_bits()),
                   Table::fmt(p.breakdown.total()),
                   Table::fmt(p.breakdown.head),
                   Table::fmt(p.breakdown.serialization),
                   std::to_string(p.placement.evaluations),
                   Table::fmt(p.placement.seconds, 3)});
  table.print(std::cout);

  const auto& best = points[core::best_point(points)];
  const latency::MeshLatencyModel model(best.design, options.latency);
  const latency::MeshLatencyModel mesh_model(topo::make_mesh(side),
                                             options.latency);

  std::printf("\nwinning design: C=%d\n", best.link_limit);
  std::printf("  row placement:   %s\n",
              best.placement.placement.to_string().c_str());
  std::printf("%s",
              topo::render_row(best.placement.placement).c_str());
  std::printf("  avg latency:     %.2f cycles (mesh: %.2f, -%.1f%%)\n",
              best.breakdown.total(), mesh_model.average().total(),
              100.0 * (1.0 - best.breakdown.total() /
                                 mesh_model.average().total()));
  std::printf("  worst-case:      %.1f cycles (mesh: %.1f)\n",
              model.worst_case(), mesh_model.worst_case());
  std::printf("  avg hops:        %.2f (mesh: %.2f)\n", model.average_hops(),
              mesh_model.average_hops());
  std::printf("  avg router ports %.2f\n",
              best.design.average_router_ports());

  const route::ChannelDependencyGraph cdg(best.design, model.routing());
  std::printf("  deadlock check:  %s (%zu channels, %zu dependencies)\n",
              cdg.has_cycle() ? "CYCLE FOUND (bug!)" : "acyclic",
              cdg.channel_count(), cdg.dependency_count());

  const auto area = power::evaluate_area(
      best.design, sim::SimConfig{}.buffer_bits_per_router);
  std::printf("  table overhead:  %.2f%% of router area\n",
              100.0 * area.table_overhead_fraction());
  return cdg.has_cycle() ? 2 : 0;
}
