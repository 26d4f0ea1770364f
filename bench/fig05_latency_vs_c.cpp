// Reproduces Fig. 5: average packet latency as a function of the link
// limit C on 4x4, 8x8 and 16x16 networks, for the proposed D&C_SA, the
// OnlySA ablation, and the fixed Mesh/HFB designs, plus the head (L_D) and
// serialization (L_S) decomposition of D&C_SA. Also prints the paper's
// headline reductions (23.5%/8.0% on 8x8, 36.4%/20.1% on 16x16).

#include <cstdio>
#include <iostream>

#include "core/c_sweep.hpp"
#include "exp/scenarios.hpp"
#include "harness.hpp"
#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "util/csv.hpp"
#include "util/numeric.hpp"
#include "util/table.hpp"

using namespace xlp;

namespace {

void run_size(int n, const obs::Provenance& provenance) {
  std::printf("\n=== Fig. 5 (%dx%d): average packet latency vs link limit C "
              "===\n",
              n, n);

  core::SweepOptions options = exp::default_sweep_options(n);
  Rng dcsa_rng(1001 + n);
  const auto dcsa = core::sweep_link_limits(n, n, options, dcsa_rng);

  options.solver = core::Solver::kOnlySa;
  Rng only_rng(2002 + n);
  const auto only = core::sweep_link_limits(n, n, options, only_rng);

  const auto fixed = exp::fixed_designs(n);
  const double mesh_total =
      core::evaluate_design(fixed[0].design, options.latency,
                            options.report_traffic)
          .total();
  const double hfb_total =
      core::evaluate_design(fixed[1].design, options.latency,
                            options.report_traffic)
          .total();

  Table table({"C", "D&C_SA", "OnlySA", "L_D(D&C_SA)", "L_S"});
  CsvWriter csv({"n", "C", "dcsa_total", "onlysa_total", "dcsa_head",
                 "serialization", "mesh_total", "hfb_total"});
  obs::Json points = obs::Json::array();
  for (std::size_t i = 0; i < dcsa.size(); ++i) {
    table.add_row({std::to_string(dcsa[i].link_limit),
                   Table::fmt(dcsa[i].breakdown.total()),
                   Table::fmt(only[i].breakdown.total()),
                   Table::fmt(dcsa[i].breakdown.head),
                   Table::fmt(dcsa[i].breakdown.serialization)});
    csv.add_row({std::to_string(n), std::to_string(dcsa[i].link_limit),
                 Table::fmt(dcsa[i].breakdown.total(), 4),
                 Table::fmt(only[i].breakdown.total(), 4),
                 Table::fmt(dcsa[i].breakdown.head, 4),
                 Table::fmt(dcsa[i].breakdown.serialization, 4),
                 Table::fmt(mesh_total, 4), Table::fmt(hfb_total, 4)});
    points.push(obs::Json::object()
                    .set("c", dcsa[i].link_limit)
                    .set("dcsa_total", dcsa[i].breakdown.total())
                    .set("onlysa_total", only[i].breakdown.total())
                    .set("dcsa_head", dcsa[i].breakdown.head)
                    .set("serialization", dcsa[i].breakdown.serialization)
                    .set("placement",
                         dcsa[i].placement.placement.to_string()));
  }
  table.print(std::cout);
  if (const std::string dir = csv_output_dir(); !dir.empty()) {
    const std::string path =
        dir + "/fig05_" + std::to_string(n) + "x" + std::to_string(n) +
        ".csv";
    std::printf("  csv: %s %s\n", path.c_str(),
                csv.write_file(path) ? "written" : "NOT WRITTEN");
    // Machine-readable series (one document per size) so successive runs
    // can be diffed into a bench trajectory — emitted through the shared
    // harness writer so it carries the same schema and provenance block as
    // every other BENCH_*.json.
    const obs::Json data = obs::Json::object()
                               .set("figure", "fig05")
                               .set("n", n)
                               .set("mesh_total", mesh_total)
                               .set("hfb_total", hfb_total)
                               .set("points", std::move(points));
    const std::string json_path = bench::write_artifact(
        dir, "fig05_" + std::to_string(n) + "x" + std::to_string(n), data,
        provenance);
    std::printf("  json: %s\n", json_path.empty() ? "NOT WRITTEN"
                                                  : json_path.c_str());
  }
  std::printf("  fixed points: Mesh = %.2f cycles (C=1), HFB = %.2f cycles "
              "(C=%d)\n",
              mesh_total, hfb_total, fixed[1].design.link_limit());

  const auto& best = dcsa[core::best_point(dcsa)];
  const auto& best_only = only[core::best_point(only)];
  std::printf("  best D&C_SA: C=%d, %.2f cycles, placement %s\n",
              best.link_limit, best.breakdown.total(),
              best.placement.placement.to_string().c_str());
  std::printf("  reduction vs Mesh: %.1f%%   vs HFB: %.1f%%   OnlySA gap: "
              "+%.1f%%\n",
              -percent_change(best.breakdown.total(), mesh_total),
              -percent_change(best.breakdown.total(), hfb_total),
              percent_change(best_only.breakdown.total(),
                             best.breakdown.total()));
}

}  // namespace

int main() {
  std::printf("Fig. 5 reproduction — paper expectations: best C interior; "
              "D&C_SA < HFB < Mesh;\nreductions vs Mesh/HFB: 8.1%%/~0%% "
              "(4x4), 23.5%%/8.0%% (8x8), 36.4%%/20.1%% (16x16).\n");
  const obs::Provenance provenance = obs::Provenance::collect(0);
  for (const int n : {4, 8, 16}) run_size(n, provenance);
  return 0;
}
