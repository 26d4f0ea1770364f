// Quickstart: optimize express-link placement for an 8x8 mesh under a
// bisection-bandwidth budget and compare the result against the baseline.
//
//   $ ./quickstart
//
// Walks the library's main flow in ~40 lines: objective -> D&C_SA solve ->
// design point -> analytic latency -> flit-level simulation.

#include <cstdio>

#include "core/c_sweep.hpp"
#include "exp/scenarios.hpp"
#include "latency/model.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"
#include "traffic/demand.hpp"

using namespace xlp;

int main() {
  constexpr int kSide = 8;

  // 1. Sweep every feasible cross-section limit C, solving the 1D placement
  //    problem P̄(n, C) with D&C_SA for each (Section 4 of the paper).
  core::SweepOptions options;
  options.sa = core::SaParams{};  // Table 1 schedule
  Rng rng(1);
  const auto points = core::sweep_link_limits(kSide, kSide, options, rng);
  const auto& best = points[core::best_point(points)];

  std::printf("best design: C=%d, flit %d bits, row placement %s\n",
              best.link_limit, best.design.flit_bits(),
              best.placement.placement.to_string().c_str());

  // 2. Analytic comparison against the plain mesh.
  const auto params = latency::LatencyParams::zero_load();
  const latency::MeshLatencyModel mesh_model(topo::make_mesh(kSide), params);
  std::printf("analytic avg latency: mesh %.2f -> optimized %.2f cycles\n",
              mesh_model.average().total(), best.breakdown.total());

  // 3. Confirm in the flit-level simulator under a PARSEC-like workload.
  const traffic::DemandRows demand(traffic::parsec_model("canneal"), kSide);
  sim::SimConfig config;
  const auto mesh_stats =
      exp::simulate_design(topo::make_mesh(kSide), demand, config);
  const auto best_stats = exp::simulate_design(best.design, demand, config);
  std::printf("simulated avg latency (canneal): mesh %.2f -> optimized "
              "%.2f cycles (%ld packets)\n",
              mesh_stats.avg_latency, best_stats.avg_latency,
              best_stats.packets_finished);
  return 0;
}
