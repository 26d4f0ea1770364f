// The paper's evaluation (Section 5) and the ablation studies around it,
// registered as the `paper` and `ablation` suites. Each body runs one
// figure or table end to end with the seeds and budgets of the paper flow
// (scaled by XLP_BENCH_SCALE), records its headline numbers as counters
// and attaches the full table rows as its payload, so one
//
//   xlp bench --filter '^(paper|ablation)/' --repeats 1 --warmup 0
//
// writes every number EXPERIMENTS.md quotes into BENCH_paper.json and
// BENCH_ablation.json (add --deterministic for byte-stable files). Latencies are in cycles, throughputs in
// packets/node/cycle, power in watts; "_pct" values are percentages and
// "cut" means a reduction (positive = lower than the reference).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/app_specific.hpp"
#include "core/baselines.hpp"
#include "core/branch_bound.hpp"
#include "core/c_sweep.hpp"
#include "core/drivers.hpp"
#include "core/naive_sa.hpp"
#include "exp/scenarios.hpp"
#include "harness.hpp"
#include "latency/model.hpp"
#include "power/area.hpp"
#include "power/model.hpp"
#include "sim/throughput.hpp"
#include "suites.hpp"
#include "topo/builders.hpp"
#include "traffic/demand.hpp"
#include "traffic/flows.hpp"
#include "util/numeric.hpp"
#include "util/stopwatch.hpp"

namespace xlp::bench {

namespace {

// Reduction of `value` below `base`, in percent.
double cut(double value, double base) { return -percent_change(value, base); }

std::string size_label(int n) {
  return std::to_string(n) + "x" + std::to_string(n);
}

std::string problem_label(int n, int limit) {
  return "P(" + std::to_string(n) + "," + std::to_string(limit) + ")";
}

// Mesh, HFB and the general-purpose 8x8 D&C_SA design (the best point of
// the seed-42 sweep): the three schemes Sections 5.3-5.5 compare.
constexpr const char* kScheme[3] = {"mesh", "hfb", "dcsa"};

struct Schemes8 {
  std::vector<exp::NamedDesign> designs;  // Mesh, HFB, D&C_SA
  std::string placement;                  // D&C_SA's row placement
};

Schemes8 schemes_8x8() {
  const auto solved = exp::solve_general_purpose(8, core::Solver::kDcsa, 42);
  const auto& best = solved.points[solved.best];
  Schemes8 schemes{exp::fixed_designs(8),
                   best.placement.placement.to_string()};
  schemes.designs.push_back({"D&C_SA", best.design});
  return schemes;
}

// {label_key: label, "mesh": v[0], "hfb": v[1], "dcsa": v[2]}
obs::Json scheme_row(const char* label_key, const std::string& label,
                     const double (&values)[3]) {
  obs::Json row = obs::Json::object();
  row.set(label_key, label);
  for (int i = 0; i < 3; ++i) row.set(kScheme[i], values[i]);
  return row;
}

bool ordered(const double (&values)[3]) {
  return values[2] < values[1] && values[1] < values[0];
}

// Fig. 5: average latency vs link limit C for D&C_SA, the OnlySA
// ablation and the fixed Mesh/HFB points, with D&C_SA's head (L_D) and
// serialization (L_S) split.
void fig05(int n, BenchRun& run) {
  core::SweepOptions options = exp::default_sweep_options(n);
  Rng dcsa_rng(1001 + n);
  const auto dcsa = core::sweep_link_limits(n, n, options, dcsa_rng);
  options.solver = core::Solver::kOnlySa;
  Rng only_rng(2002 + n);
  const auto only = core::sweep_link_limits(n, n, options, only_rng);

  const auto fixed = exp::fixed_designs(n);
  const double mesh = core::evaluate_design(fixed[0].design, options.latency,
                                            options.report_traffic)
                          .total();
  const double hfb = core::evaluate_design(fixed[1].design, options.latency,
                                           options.report_traffic)
                         .total();

  obs::Json points = obs::Json::array();
  for (std::size_t i = 0; i < dcsa.size(); ++i)
    points.push(obs::Json::object()
                    .set("c", dcsa[i].link_limit)
                    .set("dcsa_total", dcsa[i].breakdown.total())
                    .set("onlysa_total", only[i].breakdown.total())
                    .set("dcsa_head", dcsa[i].breakdown.head)
                    .set("serialization", dcsa[i].breakdown.serialization)
                    .set("placement",
                         dcsa[i].placement.placement.to_string()));

  const auto& best = dcsa[core::best_point(dcsa)];
  const auto& best_only = only[core::best_point(only)];
  run.set_counter("mesh_total", mesh);
  run.set_counter("hfb_total", hfb);
  run.set_counter("hfb_c", fixed[1].design.link_limit());
  run.set_counter("best_c", best.link_limit);
  run.set_counter("best_total", best.breakdown.total());
  run.set_counter("cut_vs_mesh_pct", cut(best.breakdown.total(), mesh));
  run.set_counter("cut_vs_hfb_pct", cut(best.breakdown.total(), hfb));
  run.set_counter("onlysa_gap_pct", percent_change(best_only.breakdown.total(),
                                                   best.breakdown.total()));
  run.set_payload(obs::Json::object()
                      .set("n", n)
                      .set("best_placement",
                           best.placement.placement.to_string())
                      .set("points", std::move(points)));
}

// Fig. 7: placement quality vs normalized runtime at 8x8 and 16x16. Each
// point is the PARSEC-average latency of D&C_SA and OnlySA at an equal
// budget of objective evaluations (so the series is deterministic), in
// units of the initializer cost I(n,4), averaged over three seeds.
void fig07(BenchRun& run) {
  constexpr int kLimit = 4;
  constexpr int kSeeds = 3;
  const auto params = latency::LatencyParams::parsec_typical();
  const auto sa = exp::paper_sa_params();
  obs::Json series = obs::Json::array();
  for (const int n : {8, 16}) {
    const core::RowObjective objective(n, route::HopWeights{});
    const long unit = core::solve_dnc_only(objective, kLimit).evaluations;
    const traffic::Flows average = traffic::parsec_average(n);
    const auto latency = [&](const core::PlacementResult& solved) {
      const auto design = topo::make_design(solved.placement, kLimit);
      return latency::MeshLatencyModel(design, params)
          .weighted_average(average)
          .total();
    };
    obs::Json points = obs::Json::array();
    double ends[2][2] = {};  // [first, last point][D&C_SA, OnlySA]
    for (const double units :
         {1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1000.0}) {
      const long budget = std::max<long>(
          1, static_cast<long>(units * unit * exp::bench_scale()));
      double sums[2] = {0, 0};
      for (int seed = 0; seed < kSeeds; ++seed) {
        Rng r1(static_cast<std::uint64_t>(seed * 17 + n));
        Rng r2(static_cast<std::uint64_t>(seed * 31 + n + 1));
        sums[0] += latency(core::solve_dcsa(
            objective, kLimit, sa.with_moves(std::max<long>(1, budget - unit)),
            r1));
        sums[1] += latency(
            core::solve_only_sa(objective, kLimit, sa.with_moves(budget), r2));
      }
      for (int i = 0; i < 2; ++i) {
        if (points.size() == 0) ends[0][i] = sums[i] / kSeeds;
        ends[1][i] = sums[i] / kSeeds;
      }
      points.push(obs::Json::object()
                      .set("runtime_units", units)
                      .set("budget_evals", budget)
                      .set("dcsa_latency", sums[0] / kSeeds)
                      .set("onlysa_latency", sums[1] / kSeeds));
    }
    const std::string size = size_label(n);
    run.set_counter("unit_evals_" + size, static_cast<double>(unit));
    run.set_counter("dcsa_first_" + size, ends[0][0]);
    run.set_counter("dcsa_last_" + size, ends[1][0]);
    run.set_counter("onlysa_first_" + size, ends[0][1]);
    run.set_counter("onlysa_last_" + size, ends[1][1]);
    series.push(obs::Json::object()
                    .set("n", n)
                    .set("unit_evals", unit)
                    .set("points", std::move(points)));
  }
  run.set_payload(obs::Json::object().set("series", std::move(series)));
}

// Fig. 6: simulated latency of the three schemes on each PARSEC model.
void fig06(BenchRun& run) {
  const Schemes8 schemes = schemes_8x8();
  double sums[3] = {0, 0, 0};
  int ordered_rows = 0;
  obs::Json rows = obs::Json::array();
  for (const auto& model : traffic::parsec_models()) {
    const traffic::DemandRows demand(model, 8);
    const auto config = exp::default_sim_config(7);
    double latency[3];
    for (int i = 0; i < 3; ++i) {
      const auto stats =
          exp::simulate_design(schemes.designs[i].design, demand, config);
      exp::warn_if_undrained(stats, std::string("paper/fig06 ") + kScheme[i] +
                                        "/" + model.name);
      latency[i] = stats.avg_latency;
      sums[i] += latency[i];
    }
    ordered_rows += ordered(latency) ? 1 : 0;
    rows.push(scheme_row("benchmark", model.name, latency)
                  .set("cut_vs_mesh_pct", cut(latency[2], latency[0]))
                  .set("cut_vs_hfb_pct", cut(latency[2], latency[1])));
  }
  const double k = static_cast<double>(traffic::parsec_models().size());
  run.set_counter("dcsa_c", schemes.designs[2].design.link_limit());
  for (int i = 0; i < 3; ++i)
    run.set_counter(std::string("avg_") + kScheme[i], sums[i] / k);
  run.set_counter("cut_vs_mesh_pct", cut(sums[2], sums[0]));
  run.set_counter("cut_vs_hfb_pct", cut(sums[2], sums[1]));
  run.set_counter("ordered_benchmarks", ordered_rows);
  run.set_payload(obs::Json::object()
                      .set("placement", schemes.placement)
                      .set("rows", std::move(rows)));
}

// Fig. 8: (a) latency at a low load and (b) saturation throughput for
// uniform random, transpose and bit-reverse traffic.
void fig08(BenchRun& run) {
  const Schemes8 schemes = schemes_8x8();
  std::vector<sim::Network> nets;
  for (const auto& d : schemes.designs)
    nets.emplace_back(d.design, route::HopWeights{});

  const sim::SimConfig low_cfg = exp::default_sim_config(3);
  sim::SimConfig sat_cfg = exp::default_sim_config(4);
  sat_cfg.warmup_cycles = std::max<long>(150, sat_cfg.warmup_cycles / 4);
  sat_cfg.measure_cycles = std::max<long>(800, sat_cfg.measure_cycles / 5);
  sat_cfg.drain_cycles = std::max<long>(800, sat_cfg.drain_cycles / 10);
  constexpr double kLowLoad = 0.02;  // packets/node/cycle, PARSEC-like

  double lat[3] = {0, 0, 0};
  double thr[3] = {0, 0, 0};
  int ordered_rows = 0;
  obs::Json latency_rows = obs::Json::array();
  obs::Json throughput_rows = obs::Json::array();
  for (const auto& [name, pattern] :
       {std::pair{"UR", traffic::Pattern::kUniformRandom},
        std::pair{"TP", traffic::Pattern::kTranspose},
        std::pair{"BR", traffic::Pattern::kBitReverse}}) {
    const traffic::DemandRows shape(pattern, 8, 1.0);
    double row_lat[3];
    double row_thr[3];
    for (int i = 0; i < 3; ++i) {
      row_lat[i] =
          sim::simulate_at_load(nets[i], shape, kLowLoad, low_cfg).avg_latency;
      row_thr[i] = sim::find_saturation(nets[i], shape, sat_cfg, 0.04, 0.5)
                       .saturation_throughput;
      lat[i] += row_lat[i];
      thr[i] += row_thr[i];
    }
    ordered_rows += ordered(row_lat) ? 1 : 0;
    latency_rows.push(scheme_row("pattern", name, row_lat));
    throughput_rows.push(scheme_row("pattern", name, row_thr));
  }
  for (int i = 0; i < 3; ++i) {
    run.set_counter(std::string("latency_") + kScheme[i], lat[i] / 3.0);
    run.set_counter(std::string("saturation_") + kScheme[i], thr[i] / 3.0);
  }
  run.set_counter("latency_cut_vs_mesh_pct", cut(lat[2], lat[0]));
  run.set_counter("latency_cut_vs_hfb_pct", cut(lat[2], lat[1]));
  run.set_counter("saturation_above_hfb_pct", percent_change(thr[2], thr[1]));
  run.set_counter("saturation_of_mesh_pct", 100.0 * thr[2] / thr[0]);
  run.set_counter("ordered_patterns", ordered_rows);
  run.set_payload(obs::Json::object()
                      .set("low_load", kLowLoad)
                      .set("latency", std::move(latency_rows))
                      .set("saturation", std::move(throughput_rows)));
}

// Fig. 9: router power per PARSEC model, split into static and dynamic
// parts and normalized to the Mesh total as in the paper's plot.
void fig09(BenchRun& run) {
  const Schemes8 schemes = schemes_8x8();
  double totals[3] = {0, 0, 0};
  double dynamics[3] = {0, 0, 0};
  double statics[3] = {0, 0, 0};
  obs::Json rows = obs::Json::array();
  for (const auto& model : traffic::parsec_models()) {
    const traffic::DemandRows demand(model, 8);
    const auto config = exp::default_sim_config(11);
    power::PowerReport reports[3];
    for (int i = 0; i < 3; ++i) {
      const auto& design = schemes.designs[i].design;
      const auto stats = exp::simulate_design(design, demand, config);
      reports[i] = power::evaluate_power(design, stats.activity,
                                         config.buffer_bits_per_router);
      totals[i] += reports[i].total();
      dynamics[i] += reports[i].dynamic_total();
      statics[i] += reports[i].static_total();
    }
    const double mesh_total = reports[0].total();
    obs::Json row = obs::Json::object().set("benchmark", model.name);
    for (int i = 0; i < 3; ++i) {
      row.set(std::string(kScheme[i]) + "_static",
              reports[i].static_total() / mesh_total);
      row.set(std::string(kScheme[i]) + "_dynamic",
              reports[i].dynamic_total() / mesh_total);
    }
    rows.push(std::move(row));
  }
  const double k = static_cast<double>(traffic::parsec_models().size());
  for (int i = 0; i < 3; ++i) {
    run.set_counter(std::string("dynamic_w_") + kScheme[i], dynamics[i] / k);
    run.set_counter(std::string("total_w_") + kScheme[i], totals[i] / k);
  }
  run.set_counter("total_cut_vs_mesh_pct", cut(totals[2], totals[0]));
  run.set_counter("total_cut_vs_hfb_pct", cut(totals[2], totals[1]));
  run.set_counter("dynamic_cut_vs_mesh_pct", cut(dynamics[2], dynamics[0]));
  run.set_counter("dynamic_cut_vs_hfb_pct", cut(dynamics[2], dynamics[1]));
  run.set_counter("static_share_pct", 100.0 * statics[0] / totals[0]);
  run.set_payload(obs::Json::object().set("rows", std::move(rows)));
}

// Fig. 10: static power split into buffer, crossbar and other leakage.
// Static power does not depend on the workload, so nothing is simulated.
void fig10(BenchRun& run) {
  const Schemes8 schemes = schemes_8x8();
  const long buffer_budget = sim::SimConfig{}.buffer_bits_per_router;
  double max_overhead = 0.0;
  obs::Json rows = obs::Json::array();
  for (int i = 0; i < 3; ++i) {
    const auto& design = schemes.designs[i].design;
    sim::ActivityCounters zero_activity;  // only static terms matter here
    zero_activity.measured_cycles = 1;
    zero_activity.flit_bits = design.flit_bits();
    const auto report =
        power::evaluate_power(design, zero_activity, buffer_budget);
    const double overhead =
        100.0 * power::evaluate_area(design, buffer_budget)
                    .table_overhead_fraction();
    max_overhead = std::max(max_overhead, overhead);
    run.set_counter(std::string("crossbar_w_") + kScheme[i],
                    report.static_crossbar_w);
    rows.push(obs::Json::object()
                  .set("scheme", kScheme[i])
                  .set("buffer_w", report.static_buffer_w)
                  .set("crossbar_w", report.static_crossbar_w)
                  .set("other_w", report.static_other_w)
                  .set("static_w", report.static_total())
                  .set("avg_ports", design.average_router_ports())
                  .set("table_overhead_pct", overhead));
  }
  run.set_counter("max_table_overhead_pct", max_overhead);
  run.set_payload(obs::Json::object().set("rows", std::move(rows)));
}

// Table 2: maximum zero-load latency between any two routers. D&C_SA's
// design is the best point of the full sweep by *average* latency (the
// paper's flow); its worst case is an outcome, not the objective.
void table2(BenchRun& run) {
  const auto params = latency::LatencyParams::zero_load();
  for (const int n : {4, 8, 16}) {
    const auto fixed = exp::fixed_designs(n);
    const auto solved = exp::solve_general_purpose(n, core::Solver::kDcsa, 42);
    const topo::ExpressMesh* designs[3] = {
        &fixed[0].design, &fixed[1].design,
        &solved.points[solved.best].design};
    for (int i = 0; i < 3; ++i)
      run.set_counter(std::string(kScheme[i]) + "_" + size_label(n),
                      latency::MeshLatencyModel(*designs[i], params)
                          .worst_case());
  }
}

// Fig. 11: the bisection-bandwidth budget at 1.0 GHz: 2 KGb/s is 128-bit
// baseline flits, 8 KGb/s is 512-bit flits.
void fig11(BenchRun& run) {
  constexpr int n = 8;
  double mesh_first = 0.0, mesh_last = 0.0;
  double dcsa_first = 0.0, dcsa_last = 0.0;
  obs::Json budgets = obs::Json::array();
  for (const auto& [label, base_bits] :
       {std::pair{"2KGb/s", 128}, std::pair{"4KGb/s", 256},
        std::pair{"8KGb/s", 512}}) {
    core::SweepOptions options = exp::default_sweep_options(n);
    options.base_flit_bits = base_bits;
    Rng rng(17);
    const auto points = core::sweep_link_limits(n, n, options, rng);
    const double mesh =
        core::evaluate_design(topo::make_mesh(n, base_bits), options.latency,
                              options.report_traffic)
            .total();
    const double hfb =
        core::evaluate_design(topo::make_hfb(n, base_bits), options.latency,
                              options.report_traffic)
            .total();
    const auto& best = points[core::best_point(points)];

    obs::Json sweep = obs::Json::array();
    for (const auto& p : points)
      sweep.push(obs::Json::object()
                     .set("c", p.link_limit)
                     .set("dcsa_total", p.breakdown.total())
                     .set("dcsa_head", p.breakdown.head)
                     .set("serialization", p.breakdown.serialization));
    budgets.push(obs::Json::object()
                     .set("budget", label)
                     .set("base_flit_bits", base_bits)
                     .set("mesh_total", mesh)
                     .set("hfb_total", hfb)
                     .set("best_c", best.link_limit)
                     .set("best_total", best.breakdown.total())
                     .set("points", std::move(sweep)));
    if (base_bits == 128) {
      mesh_first = mesh;
      dcsa_first = best.breakdown.total();
    }
    if (base_bits == 512) {
      mesh_last = mesh;
      dcsa_last = best.breakdown.total();
    }
  }
  run.set_counter("mesh_gain_pct", cut(mesh_last, mesh_first));
  run.set_counter("dcsa_gain_pct", cut(dcsa_last, dcsa_first));
  run.set_payload(obs::Json::object().set("budgets", std::move(budgets)));
}

// Fig. 12: D&C_SA against the exhaustive branch-and-bound optimum on the
// verifiable problems. The wall-clock runtimes of both sides are times
// (zeroed under --deterministic); their evaluation counts are not.
void fig12(BenchRun& run) {
  double max_gap = 0.0;
  obs::Json rows = obs::Json::array();
  for (const auto& [n, limit] :
       {std::pair{4, 2}, std::pair{8, 2}, std::pair{8, 3}, std::pair{8, 4},
        std::pair{16, 2}}) {
    const core::RowObjective obj(n, route::HopWeights{});
    Stopwatch bb_timer;
    const long evals_before_bb = obj.evaluations();
    core::BranchAndBound bb(obj, limit);
    const core::ExactResult exact = bb.solve();
    const double bb_seconds = bb_timer.seconds();
    const long bb_evals = obj.evaluations() - evals_before_bb;

    Rng rng(static_cast<std::uint64_t>(n * 100 + limit));
    const core::PlacementResult dcsa =
        core::solve_dcsa(obj, limit, exp::paper_sa_params(), rng);

    const std::string key =
        "p" + std::to_string(n) + "_" + std::to_string(limit);
    run.set_time_ns(key + "_exact_ns", bb_seconds * 1e9);
    run.set_time_ns(key + "_dcsa_ns", dcsa.seconds * 1e9);
    const double gap = percent_change(dcsa.value, exact.value);
    max_gap = std::max(max_gap, gap);
    rows.push(obs::Json::object()
                  .set("problem", problem_label(n, limit))
                  .set("optimal", exact.value)
                  .set("dcsa", dcsa.value)
                  .set("gap_pct", gap)
                  .set("evals_ratio", static_cast<double>(bb_evals) /
                                          static_cast<double>(dcsa.evaluations)));
  }
  run.set_counter("max_gap_pct", max_gap);
  run.set_payload(obs::Json::object().set("rows", std::move(rows)));
}

// Section 5.6.4: application-specific placement. Each workload's traffic
// matrix stands in for the paper's profiling run on the mesh; every row
// and column is optimized with its own weighted objective and compared
// against the best general-purpose design on that workload. The PARSEC
// stand-ins are close to uniform, so the same flow also runs on strongly
// skewed synthetic workloads where it can express itself.
void app_specific(BenchRun& run) {
  constexpr int n = 8;
  const double scale = exp::bench_scale();
  core::SweepOptions options;
  options.sa = exp::paper_sa_params().with_moves(
      std::max<long>(100, static_cast<long>(2000 * scale)));
  options.latency = latency::LatencyParams::parsec_typical();

  // General-purpose design (uniform objective), reused for all workloads.
  Rng gp_rng(42);
  core::SweepOptions gp_options = options;
  gp_options.sa = exp::paper_sa_params().with_moves(
      std::max<long>(100, static_cast<long>(10000 * scale)));
  const auto gp_points = core::sweep_link_limits(n, n, gp_options, gp_rng);

  // One row: best general-purpose point on `demand` vs the app-specific
  // design; returns the extra cut in percent.
  auto compare = [&](const std::string& name,
                     const traffic::DemandRows& demand, Rng& rng,
                     obs::Json& rows) {
    double gp_best = 0.0;
    bool first = true;
    for (const auto& p : gp_points) {
      const double value =
          latency::MeshLatencyModel(p.design, options.latency)
              .weighted_average(demand)
              .total();
      if (first || value < gp_best) gp_best = value;
      first = false;
    }
    const auto app = core::solve_app_specific(demand, options, rng);
    const double extra = cut(app.breakdown.total(), gp_best);
    rows.push(obs::Json::object()
                  .set("workload", name)
                  .set("general_purpose", gp_best)
                  .set("app_specific", app.breakdown.total())
                  .set("extra_cut_pct", extra)
                  .set("app_c", app.link_limit));
    return extra;
  };

  obs::Json parsec = obs::Json::array();
  double parsec_total = 0.0;
  for (const auto& model : traffic::parsec_models()) {
    Rng rng(static_cast<std::uint64_t>(std::hash<std::string>{}(model.name)));
    parsec_total +=
        compare(model.name, traffic::DemandRows(model, n), rng, parsec);
  }
  obs::Json skewed = obs::Json::array();
  double skewed_total = 0.0;
  int skewed_count = 0;
  for (const auto pattern :
       {traffic::Pattern::kTranspose, traffic::Pattern::kBitReverse,
        traffic::Pattern::kHotspot, traffic::Pattern::kNeighbor}) {
    Rng rng(static_cast<std::uint64_t>(17 + static_cast<int>(pattern)));
    skewed_total += compare(traffic::to_string(pattern),
                            traffic::DemandRows(pattern, n, 0.02), rng,
                            skewed);
    ++skewed_count;
  }
  run.set_counter("avg_extra_cut_pct",
                  parsec_total / traffic::parsec_models().size());
  run.set_counter("skewed_avg_extra_cut_pct", skewed_total / skewed_count);
  run.set_payload(obs::Json::object()
                      .set("parsec", std::move(parsec))
                      .set("skewed", std::move(skewed)));
}

// Section 4.4's two ingredients at equal move budgets: the candidate
// generator (connection-matrix moves, always valid, vs naive link moves
// that waste budget on infeasible candidates) and the initial solution
// (D&C vs random vs the plain row). Objective: average row head latency.
void generators(BenchRun& run) {
  const long moves =
      std::max<long>(200, static_cast<long>(10000 * exp::bench_scale()));
  const core::SaParams params = exp::paper_sa_params().with_moves(moves);
  constexpr int kSeeds = 5;
  obs::Json rows = obs::Json::array();
  for (const auto& [n, limit] : {std::pair{8, 4}, std::pair{16, 4}}) {
    const core::RowObjective obj(n, route::HopWeights{});
    double matrix_dc = 0.0, matrix_rand = 0.0, naive_plain = 0.0;
    double invalid_share = 0.0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      Rng r1(seed), r2(seed + 50), r3(seed + 100);
      matrix_dc += core::solve_dcsa(obj, limit, params, r1).value;
      matrix_rand += core::solve_only_sa(obj, limit, params, r2).value;
      const auto naive = core::anneal_naive_links(topo::RowTopology(n), obj,
                                                  limit, params, r3);
      naive_plain += naive.best_value;
      invalid_share += static_cast<double>(naive.invalid_moves) /
                       static_cast<double>(params.total_moves);
    }
    rows.push(obs::Json::object()
                  .set("problem", problem_label(n, limit))
                  .set("matrix_dnc", matrix_dc / kSeeds)
                  .set("matrix_random", matrix_rand / kSeeds)
                  .set("naive_plain", naive_plain / kSeeds)
                  .set("naive_invalid_pct", 100.0 * invalid_share / kSeeds));
  }
  run.set_counter("moves", static_cast<double>(moves));
  run.set_counter("seeds", kSeeds);
  run.set_payload(obs::Json::object().set("rows", std::move(rows)));
}

// Section 4.2's case for assuming dimension-order routing: at PARSEC
// loads contention stays below one cycle per hop and XY is within 1% of
// a routing that uses both dimension orders (O1TURN: random XY/YX per
// packet on disjoint VC classes), which only pays off near saturation on
// adversarial patterns.
void routing_comparison(BenchRun& run) {
  const auto mesh = topo::make_mesh(8);
  const sim::Network net(mesh, route::HopWeights{});

  double diff_sum = 0.0;
  double worst_contention = 0.0;
  obs::Json rows = obs::Json::array();
  for (const auto& model : traffic::parsec_models()) {
    const traffic::DemandRows demand(model, 8);
    const sim::SimConfig xy_cfg = exp::default_sim_config(3);
    sim::SimConfig o1_cfg = xy_cfg;
    o1_cfg.routing = sim::RoutingMode::kO1Turn;
    const auto xy = exp::simulate_design(mesh, demand, xy_cfg);
    const auto o1 = exp::simulate_design(mesh, demand, o1_cfg);
    exp::warn_if_undrained(xy, "ablation/routing_comparison xy/" + model.name);
    exp::warn_if_undrained(o1,
                           "ablation/routing_comparison o1turn/" + model.name);
    const double diff = percent_change(o1.avg_latency, xy.avg_latency);
    diff_sum += std::abs(diff);
    worst_contention = std::max(worst_contention, xy.avg_contention_per_hop);
    rows.push(obs::Json::object()
                  .set("benchmark", model.name)
                  .set("xy", xy.avg_latency)
                  .set("o1turn", o1.avg_latency)
                  .set("diff_pct", diff)
                  .set("xy_contention_per_hop", xy.avg_contention_per_hop));
  }
  run.set_counter("mean_abs_diff_pct",
                  diff_sum / traffic::parsec_models().size());
  run.set_counter("worst_contention_per_hop", worst_contention);

  sim::SimConfig sat_xy = exp::default_sim_config(4);
  sat_xy.warmup_cycles = 200;
  sat_xy.measure_cycles = 1200;
  sat_xy.drain_cycles = 1200;
  sim::SimConfig sat_o1 = sat_xy;
  sat_o1.routing = sim::RoutingMode::kO1Turn;
  for (const auto& [key, pattern] :
       {std::pair{"ur", traffic::Pattern::kUniformRandom},
        std::pair{"tp", traffic::Pattern::kTranspose}}) {
    const traffic::DemandRows shape(pattern, 8, 1.0);
    run.set_counter(std::string("saturation_xy_") + key,
                    sim::find_saturation(net, shape, sat_xy, 0.04, 0.5)
                        .saturation_throughput);
    run.set_counter(std::string("saturation_o1turn_") + key,
                    sim::find_saturation(net, shape, sat_o1, 0.04, 0.5)
                        .saturation_throughput);
  }
  run.set_payload(obs::Json::object().set("rows", std::move(rows)));
}

// Virtual vs physical express (Section 2.1, after Chen et al. [6]). The
// VEC model is an idealized upper bound: every straight-through flit
// bypasses the front pipeline stages, with no lane alignment or setup
// restrictions. Physical express should still win on long-haul zero-load
// latency and on power (VEC buffers and switches every flit everywhere).
void virtual_vs_physical(BenchRun& run) {
  const Schemes8 schemes = schemes_8x8();
  const auto& mesh = schemes.designs[0].design;
  const auto& dcsa = schemes.designs[2].design;

  double sums[4] = {0, 0, 0, 0};  // Mesh, Mesh+VEC, HFB, D&C_SA
  double power_vec = 0.0, power_phys = 0.0;
  obs::Json rows = obs::Json::array();
  for (const auto& model : traffic::parsec_models()) {
    const traffic::DemandRows demand(model, 8);
    const sim::SimConfig plain = exp::default_sim_config(21);
    sim::SimConfig vec = plain;
    vec.virtual_express_bypass = true;

    const sim::SimStats stats[4] = {
        exp::simulate_design(mesh, demand, plain),
        exp::simulate_design(mesh, demand, vec),
        exp::simulate_design(schemes.designs[1].design, demand, plain),
        exp::simulate_design(dcsa, demand, plain)};
    const char* keys[4] = {"mesh", "mesh_vec", "hfb", "dcsa"};
    obs::Json row = obs::Json::object().set("benchmark", model.name);
    for (int i = 0; i < 4; ++i) {
      exp::warn_if_undrained(stats[i], std::string("ablation/"
                                                   "virtual_vs_physical ") +
                                           keys[i] + "/" + model.name);
      sums[i] += stats[i].avg_latency;
      row.set(keys[i], stats[i].avg_latency);
    }
    rows.push(std::move(row));
    power_vec += power::evaluate_power(mesh, stats[1].activity,
                                       plain.buffer_bits_per_router)
                     .total();
    power_phys += power::evaluate_power(dcsa, stats[3].activity,
                                        plain.buffer_bits_per_router)
                      .total();
  }
  const double k = static_cast<double>(traffic::parsec_models().size());
  run.set_counter("avg_mesh", sums[0] / k);
  run.set_counter("avg_mesh_vec", sums[1] / k);
  run.set_counter("avg_hfb", sums[2] / k);
  run.set_counter("avg_dcsa", sums[3] / k);
  run.set_counter("vec_cut_vs_mesh_pct", cut(sums[1], sums[0]));
  run.set_counter("dcsa_cut_vs_mesh_pct", cut(sums[3], sums[0]));
  run.set_counter("power_w_mesh_vec", power_vec / k);
  run.set_counter("power_w_dcsa", power_phys / k);
  run.set_counter("dcsa_power_cut_vs_vec_pct", cut(power_phys, power_vec));

  // Long-haul (0,0)->(7,7) at zero load: physical bypass removes whole
  // routers, virtual bypass only pipeline stages.
  sim::SimConfig zl;
  zl.warmup_cycles = 100;
  zl.measure_cycles = 1000;
  sim::SimConfig zl_vec = zl;
  zl_vec.virtual_express_bypass = true;
  auto one = [&](const topo::ExpressMesh& design, const sim::SimConfig& cfg) {
    const sim::Network net(design, route::HopWeights{});
    sim::Simulator s(net, cfg);
    s.schedule_packet(0, 63, 512, 150);
    (void)s.run();
    return static_cast<double>(s.packet_latency(0));
  };
  run.set_counter("long_haul_mesh", one(mesh, zl));
  run.set_counter("long_haul_mesh_vec", one(mesh, zl_vec));
  run.set_counter("long_haul_dcsa", one(dcsa, zl));
  run.set_payload(obs::Json::object().set("rows", std::move(rows)));
}

// The mechanism behind Fig. 8(b) (Section 5.4): drive each scheme to high
// uniform-random load and measure, for every vertical cross-section, the
// provisioned capacity, the used bandwidth and the utilization. The HFB
// saturates its quadrant-boundary cut while its intra-quadrant links
// idle; D&C_SA keeps its cuts more evenly and more fully populated.
void bandwidth_utilization(BenchRun& run) {
  const Schemes8 schemes = schemes_8x8();
  obs::Json payload = obs::Json::object();
  const double loads[3] = {0.22, 0.12, 0.22};
  for (int i = 0; i < 3; ++i) {
    const auto& design = schemes.designs[i].design;
    const sim::Network net(design, route::HopWeights{});
    sim::SimConfig config;
    config.warmup_cycles = 300;
    config.measure_cycles = 3000;
    config.drain_cycles = 1000;  // saturated runs will not drain; that's fine
    const traffic::DemandRows shape(traffic::Pattern::kUniformRandom,
                                    design.side(), 1.0);
    const auto stats = sim::simulate_at_load(net, shape, loads[i], config);

    obs::Json cuts = obs::Json::array();
    for (int c = 0; c < design.side() - 1; ++c) {
      const auto use = exp::vertical_cut_use(net, stats, c, true);
      cuts.push(obs::Json::object()
                    .set("cut", c)
                    .set("channels", use.channels)
                    .set("capacity_bits_per_cycle",
                         use.capacity_bits_per_cycle)
                    .set("used_bits_per_cycle", use.used_bits_per_cycle)
                    .set("utilization_pct", 100.0 * use.utilization()));
    }
    const auto middle =
        exp::vertical_cut_use(net, stats, design.side() / 2 - 1, true);
    const std::string key = kScheme[i];
    run.set_counter("accepted_" + key,
                    stats.throughput_packets_per_node_cycle);
    run.set_counter("middle_utilization_pct_" + key,
                    100.0 * middle.utilization());
    payload.set(key, obs::Json::object()
                         .set("c", design.link_limit())
                         .set("flit_bits", design.flit_bits())
                         .set("offered", loads[i])
                         .set("cuts", std::move(cuts)));
  }
  run.set_payload(std::move(payload));
}

// D&C_SA against generic optimizers at an equal evaluation budget: greedy
// long-range insertion (Ogras & Marculescu [21] style), hill climbing with
// restarts, a genetic algorithm over connection matrices, OnlySA and the
// one-shot D&C initializer, plus the exact optimum where branch-and-bound
// is feasible (null elsewhere). Objective: average row head latency.
void optimizer_comparison(BenchRun& run) {
  const long budget =
      std::max<long>(500, static_cast<long>(10000 * exp::bench_scale()));
  constexpr int kSeeds = 3;
  obs::Json rows = obs::Json::array();
  for (const auto& [n, limit] :
       {std::pair{8, 4}, std::pair{16, 4}, std::pair{16, 8},
        std::pair{32, 4}}) {
    const core::RowObjective obj(n, route::HopWeights{});
    const core::SaParams sa = core::SaParams{}.with_moves(budget);
    obs::Json exact;
    if (n <= 8) {
      core::BranchAndBound bb(obj, limit);
      exact = bb.solve().value;
    }
    double dcsa = 0, only = 0, hill = 0, ga = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      Rng r1(seed), r2(seed + 10), r3(seed + 20), r4(seed + 30);
      dcsa += core::solve_dcsa(obj, limit, sa, r1).value;
      only += core::solve_only_sa(obj, limit, sa, r2).value;
      hill += core::solve_hill_climb(obj, limit, budget, r3).value;
      core::GaParams ga_params;
      ga_params.max_evaluations = budget;
      ga += core::solve_ga(obj, limit, ga_params, r4).value;
    }
    rows.push(obs::Json::object()
                  .set("problem", problem_label(n, limit))
                  .set("exact", std::move(exact))
                  .set("dcsa", dcsa / kSeeds)
                  .set("onlysa", only / kSeeds)
                  .set("hill_climb", hill / kSeeds)
                  .set("ga", ga / kSeeds)
                  .set("greedy", core::solve_greedy_insertion(obj, limit).value)
                  .set("dnc_only", core::solve_dnc_only(obj, limit).value));
  }
  run.set_counter("budget", static_cast<double>(budget));
  run.set_payload(obs::Json::object().set("rows", std::move(rows)));
}

// The paper optimizes the *average* pairwise latency and reports the
// worst case only as an outcome (Table 2). Re-running D&C_SA on P(8,4)
// with the blended objective (1-w)*average + w*worst shows what
// reclaiming worst-case latency would cost; w=0 is the paper's objective.
void worst_case_objective(BenchRun& run) {
  const long moves =
      std::max<long>(500, static_cast<long>(10000 * exp::bench_scale()));
  const auto latency_params = latency::LatencyParams::zero_load();
  obs::Json rows = obs::Json::array();
  for (const double w : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    core::RowObjective objective(8, route::HopWeights{});
    objective.set_worst_case_weight(w);
    Rng rng(static_cast<std::uint64_t>(100 + w * 100));
    const auto result = core::solve_dcsa(
        objective, 4, core::SaParams{}.with_moves(moves), rng);
    const auto design = topo::make_design(result.placement, 4);
    const latency::MeshLatencyModel model(design, latency_params);
    rows.push(obs::Json::object()
                  .set("w", w)
                  .set("mesh_avg", model.average().total())
                  .set("mesh_worst", model.worst_case())
                  .set("placement", result.placement.to_string()));
  }
  run.set_counter("moves", static_cast<double>(moves));
  run.set_payload(obs::Json::object().set("rows", std::move(rows)));
}

// Router-microarchitecture ablation: round-robin vs oldest-first switch
// allocation on the 8x8 D&C_SA design under uniform-random load. The
// placement study holds the router constant; age-based arbitration moves
// the mean little but tightens the tail near saturation.
void arbiter(BenchRun& run) {
  const Schemes8 schemes = schemes_8x8();
  const sim::Network net(schemes.designs[2].design, route::HopWeights{});
  const traffic::DemandRows shape(traffic::Pattern::kUniformRandom, 8, 1.0);
  obs::Json rows = obs::Json::array();
  for (const double load : {0.05, 0.12, 0.18}) {
    for (const auto& [name, policy] :
         {std::pair{"round_robin", sim::Arbiter::kRoundRobin},
          std::pair{"oldest_first", sim::Arbiter::kOldestFirst}}) {
      sim::SimConfig config = exp::default_sim_config(5);
      config.arbiter = policy;
      const auto stats = sim::simulate_at_load(net, shape, load, config);
      // The highest load is where the arbiters differ: its tail is the
      // headline.
      if (load == 0.18)
        run.set_counter(std::string(name) + "_p99", stats.p99_latency);
      rows.push(obs::Json::object()
                    .set("load", load)
                    .set("arbiter", name)
                    .set("avg", stats.avg_latency)
                    .set("p50", stats.p50_latency)
                    .set("p95", stats.p95_latency)
                    .set("p99", stats.p99_latency)
                    .set("max", stats.max_latency));
    }
  }
  run.set_payload(obs::Json::object().set("rows", std::move(rows)));
}

}  // namespace

void register_paper_suites() {
  for (const int n : {4, 8, 16})
    register_bench("paper", "fig05_" + size_label(n), "full",
                   [n](BenchRun& run) { fig05(n, run); });
  register_bench("paper", "fig07", "full", fig07);
  register_bench("paper", "fig06", "full", fig06);
  register_bench("paper", "fig08", "full", fig08);
  register_bench("paper", "fig09", "full", fig09);
  register_bench("paper", "fig10", "full", fig10);
  register_bench("paper", "fig11", "full", fig11);
  register_bench("paper", "fig12", "full", fig12);
  register_bench("paper", "table2", "full", table2);
  register_bench("paper", "app_specific", "full", app_specific);

  register_bench("ablation", "generators", "full", generators);
  register_bench("ablation", "routing_comparison", "full", routing_comparison);
  register_bench("ablation", "virtual_vs_physical", "full",
                 virtual_vs_physical);
  register_bench("ablation", "bandwidth_utilization", "full",
                 bandwidth_utilization);
  register_bench("ablation", "optimizer_comparison", "full",
                 optimizer_comparison);
  register_bench("ablation", "worst_case_objective", "full",
                 worst_case_objective);
  register_bench("ablation", "arbiter", "full", arbiter);
}

}  // namespace xlp::bench
