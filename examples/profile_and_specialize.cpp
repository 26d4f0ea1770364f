// The full Section 5.6.4 methodology, end to end:
//
//   1. run the workload once on the baseline mesh and *measure* its traffic
//      (the profiling pass — here a sampled trace replayed on the mesh,
//      with the observed gamma_ij reconstructed from the packets);
//   2. feed the measured flows to the application-specific optimizer
//      (per-row / per-column weighted D&C_SA);
//   3. replay the *same trace* on the general-purpose design and on the
//      specialized design and compare measured latencies.
//
//   $ ./profile_and_specialize [workload=transpose] [cycles=20000]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/app_specific.hpp"
#include "core/c_sweep.hpp"
#include "exp/scenarios.hpp"
#include "traffic/demand.hpp"

using namespace xlp;

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "transpose";
  const long cycles = argc > 2 ? std::atol(argv[2]) : 20000;
  constexpr int kSide = 8;

  const auto demand = traffic::workload_rows(workload, kSide, 0.02);

  // 1. Profile on the mesh.
  std::printf("profiling '%s' on the baseline mesh for %ld cycles...\n",
              workload.c_str(), cycles);
  const exp::ProfileResult profile = exp::profile_on_mesh(demand, cycles, 5);
  std::printf("  observed %.0f packets, mesh latency %.2f cycles\n",
              profile.observed.total_rate() * cycles,
              profile.stats.avg_latency);

  // 2. Optimize: general-purpose (uniform objective) and specialized (the
  //    *measured* flows as the objective weights).
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(2000);
  options.latency = latency::LatencyParams::zero_load();
  options.report_traffic = profile.observed;

  Rng gp_rng(1);
  const auto gp = core::sweep_link_limits(kSide, kSide, options, gp_rng);
  const auto& gp_best = gp[core::best_point(gp)];

  Rng app_rng(2);
  const auto app = core::solve_app_specific(profile.observed, options,
                                            app_rng);

  // 3. Replay the same offered workload on both designs.
  Rng trace_rng(5);
  const auto trace = traffic::Trace::sample(demand, cycles, trace_rng);
  const auto gp_stats = exp::replay_trace(gp_best.design, trace,
                                          sim::SimConfig{});
  const auto app_stats = exp::replay_trace(app.design, trace,
                                           sim::SimConfig{});

  std::printf("\nmeasured average packet latency (same %zu-packet trace):\n",
              trace.packets().size());
  std::printf("  baseline mesh:        %.2f cycles\n",
              profile.stats.avg_latency);
  std::printf("  general-purpose (C=%d): %.2f cycles\n", gp_best.link_limit,
              gp_stats.avg_latency);
  std::printf("  app-specific   (C=%d): %.2f cycles (%.1f%% below "
              "general-purpose)\n",
              app.link_limit, app_stats.avg_latency,
              100.0 * (1.0 - app_stats.avg_latency / gp_stats.avg_latency));
  return 0;
}
