#include "exp/scenarios.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runctl/control.hpp"
#include "util/check.hpp"

namespace xlp::exp {

std::vector<NamedDesign> fixed_designs(int n) {
  return {{"Mesh", topo::make_mesh(n)}, {"HFB", topo::make_hfb(n)}};
}

core::SaParams paper_sa_params() {
  return core::SaParams{};  // Table 1 values are the defaults
}

double bench_scale() {
  // Callers size budgets as static_cast<long>(base * scale), with bases
  // far below 1e12 (Fig. 7's largest evaluation budget is the biggest), so
  // every budget fits a long up to this scale. Past it the cast would
  // overflow, so inf and 1e300 fall back to 1.0 like garbage does.
  constexpr double kMaxScale = 1e6;
  if (const char* env = std::getenv("XLP_BENCH_SCALE")) {
    const double value = std::atof(env);
    if (value > 0.0 && value <= kMaxScale) return value;
  }
  return 1.0;
}

core::SweepOptions default_sweep_options(int n) {
  core::SweepOptions options;
  options.sa = paper_sa_params().with_moves(
      std::max<long>(100, static_cast<long>(10000 * bench_scale())));
  options.latency = latency::LatencyParams::parsec_typical();
  options.report_traffic = traffic::parsec_average(n);
  return options;
}

SolvedSweep solve_general_purpose(int n, core::Solver solver,
                                  std::uint64_t seed) {
  core::SweepOptions options = default_sweep_options(n);
  options.solver = solver;
  Rng rng(seed);
  SolvedSweep solved;
  solved.points = core::sweep_link_limits(n, n, options, rng);
  solved.best = core::best_point(solved.points);
  return solved;
}

sim::SimStats simulate_design(const topo::ExpressMesh& design,
                              const traffic::Demand& demand,
                              const sim::SimConfig& config) {
  const sim::Network network(design, route::HopWeights{});
  sim::Simulator simulator(network, demand, config);
  return simulator.run();
}

sim::SimStats replay_trace(const topo::ExpressMesh& design,
                           const traffic::Trace& trace,
                           const sim::SimConfig& base_config) {
  sim::SimConfig config = base_config;
  config.warmup_cycles = 0;
  config.measure_cycles = trace.duration();
  config.drain_cycles = trace.duration() + 10000;

  const sim::Network network(design, route::HopWeights{});
  sim::Simulator simulator(network, config);
  for (const traffic::TracePacket& p : trace.packets())
    simulator.schedule_packet(p.src, p.dst, p.bits, p.cycle);
  return simulator.run();
}

ProfileResult profile_on_mesh(const traffic::Demand& demand, long cycles,
                              std::uint64_t seed) {
  Rng rng(seed);
  const traffic::Trace trace = traffic::Trace::sample(demand, cycles, rng);
  const auto mesh = topo::make_rect_mesh(demand.width(), demand.height());
  sim::SimStats stats = replay_trace(mesh, trace, sim::SimConfig{});
  return {trace.observed(), std::move(stats)};
}

CutUse vertical_cut_use(const sim::Network& network,
                        const sim::SimStats& stats, int cut, bool rightward) {
  const int w = network.width();
  XLP_REQUIRE(cut >= 0 && cut < w - 1, "cut index out of range");
  XLP_REQUIRE(stats.channel_flits.size() == network.channels().size(),
              "stats do not belong to this network");
  XLP_REQUIRE(stats.activity.measured_cycles > 0, "no measured cycles");

  CutUse use;
  for (std::size_t c = 0; c < network.channels().size(); ++c) {
    const auto& ch = network.channels()[c];
    if (ch.src_router / w != ch.dst_router / w) continue;  // column channel
    const int sx = ch.src_router % w;
    const int dx = ch.dst_router % w;
    const bool crosses = rightward ? (sx <= cut && cut < dx)
                                   : (dx <= cut && cut < sx);
    if (!crosses) continue;
    ++use.channels;
    use.used_bits_per_cycle +=
        static_cast<double>(stats.channel_flits[c]) * network.flit_bits() /
        static_cast<double>(stats.activity.measured_cycles);
  }
  use.capacity_bits_per_cycle =
      static_cast<double>(use.channels) * network.flit_bits();
  return use;
}

bool warn_if_undrained(const sim::SimStats& stats,
                       const std::string& context) {
  if (stats.drained) return true;
  const long in_flight = stats.packets_offered - stats.packets_finished;
  if (stats.status != runctl::RunStatus::kCompleted) {
    // The run was cut short by a deadline or an interrupt: undrained
    // packets are expected, not a saturation diagnosis — keep the noise
    // level down and just note the early stop.
    std::fprintf(stderr,
                 "note: %s: run stopped early (%s) with %ld of %ld measured "
                 "packets still in flight; statistics cover the simulated "
                 "prefix only\n",
                 context.c_str(), runctl::to_string(stats.status), in_flight,
                 stats.packets_offered);
    return false;
  }
  if (stats.packets_lost > 0 || stats.packets_unroutable > 0) {
    // Faults, not saturation: packets were purged with retries exhausted or
    // refused because no surviving route existed.
    std::fprintf(stderr,
                 "WARNING: %s: %ld of %ld measured packets never drained "
                 "(%ld lost to faults, %ld unroutable; last ejection at "
                 "cycle %ld) — losses come from severed routes, not "
                 "saturation\n",
                 context.c_str(), in_flight, stats.packets_offered,
                 stats.packets_lost, stats.packets_unroutable,
                 stats.last_ejection_cycle);
    return false;
  }
  std::fprintf(stderr,
               "WARNING: %s: %ld of %ld measured packets never drained "
               "(still in flight at end of run; last ejection at cycle "
               "%ld) — the network is past saturation; reported latencies "
               "are lower bounds, not steady-state values\n",
               context.c_str(), in_flight, stats.packets_offered,
               stats.last_ejection_cycle);
  return false;
}

sim::SimConfig default_sim_config(std::uint64_t seed, double scale) {
  sim::SimConfig config;
  config.warmup_cycles = std::max<long>(200, static_cast<long>(1000 * scale));
  config.measure_cycles =
      std::max<long>(1000, static_cast<long>(10000 * scale));
  config.drain_cycles = std::max<long>(2000, static_cast<long>(20000 * scale));
  config.seed = seed;
  return config;
}

}  // namespace xlp::exp
