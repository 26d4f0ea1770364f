#pragma once

#include <string>
#include <vector>

#include "core/c_sweep.hpp"
#include "sim/config.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"
#include "traffic/app_models.hpp"
#include "traffic/trace.hpp"

namespace xlp::exp {

/// A named design point, for tables comparing fixed topologies against the
/// optimized placements.
struct NamedDesign {
  std::string name;
  topo::ExpressMesh design;
};

/// The paper's fixed competitors: the baseline mesh and the hybrid
/// flattened butterfly (Section 5.1, schemes 1 and 2).
[[nodiscard]] std::vector<NamedDesign> fixed_designs(int n);

/// Table 1's annealing schedule.
[[nodiscard]] core::SaParams paper_sa_params();

/// Scale factor for experiment budgets: reads the environment variable
/// XLP_BENCH_SCALE (default 1.0). Values below 1 shrink SA budgets and
/// simulated cycles for quick smoke runs; above 1 lengthens them toward the
/// paper's full budgets. Anything that is not a number in (0, 1e6] —
/// garbage, nan, inf, negatives — reads as 1.0.
[[nodiscard]] double bench_scale();

/// Default sweep options used by the reproduction benches: D&C_SA with
/// Table 1's schedule (scaled by bench_scale()), PARSEC-typical latency
/// parameters, reporting weighted by the PARSEC-average demand.
[[nodiscard]] core::SweepOptions default_sweep_options(int n);

/// Convenience: solves the full general-purpose flow for one network size
/// and returns the sweep (one point per feasible C).
struct SolvedSweep {
  std::vector<core::SweepPoint> points;
  std::size_t best = 0;
};
[[nodiscard]] SolvedSweep solve_general_purpose(int n, core::Solver solver,
                                                std::uint64_t seed);

/// Runs the flit-level simulator for a design under a demand.
[[nodiscard]] sim::SimStats simulate_design(const topo::ExpressMesh& design,
                                            const traffic::Demand& demand,
                                            const sim::SimConfig& config);

/// SimConfig with cycle counts scaled by `scale`.
[[nodiscard]] sim::SimConfig default_sim_config(std::uint64_t seed = 1,
                                                double scale = bench_scale());

/// Trace-driven run: replays every packet of the trace on the design (no
/// stochastic background traffic) and measures all of them. The
/// measurement window covers the whole trace; drain defaults to the trace
/// duration plus a margin.
[[nodiscard]] sim::SimStats replay_trace(const topo::ExpressMesh& design,
                                         const traffic::Trace& trace,
                                         const sim::SimConfig& base_config);

/// The profiling half of Section 5.6.4's flow: sample a trace of the given
/// workload, replay it on the baseline mesh (the profiling platform), and
/// return the observed flows together with the profiling stats.
struct ProfileResult {
  traffic::Flows observed;
  sim::SimStats stats;
};
[[nodiscard]] ProfileResult profile_on_mesh(const traffic::Demand& demand,
                                            long cycles, std::uint64_t seed);

/// Measured use of one vertical cross-section (between columns `cut` and
/// `cut+1`), per direction, from a simulation's per-channel flit counts.
/// Supports Section 5.4's analysis: utilization = flits carried / cycles /
/// channels; capacity in bits = channels * flit width.
struct CutUse {
  int channels = 0;            // row channels crossing the cut, one direction
  double capacity_bits_per_cycle = 0.0;
  double used_bits_per_cycle = 0.0;
  [[nodiscard]] double utilization() const noexcept {
    return capacity_bits_per_cycle > 0.0
               ? used_bits_per_cycle / capacity_bits_per_cycle
               : 0.0;
  }
};
[[nodiscard]] CutUse vertical_cut_use(const sim::Network& network,
                                      const sim::SimStats& stats, int cut,
                                      bool rightward);

/// Prints a stderr warning when the run did not drain (the network was
/// past saturation, so its reported latencies are lower bounds rather than
/// steady-state values). Returns stats.drained so call sites can branch on
/// it. Every CLI/bench driver that reports simulated latency should route
/// its stats through this instead of silently printing them.
bool warn_if_undrained(const sim::SimStats& stats, const std::string& context);

}  // namespace xlp::exp
