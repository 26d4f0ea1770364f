// Reproduces Fig. 11: the impact of the bisection-bandwidth budget on the
// 8x8 network at 1.0 GHz. 2 KGb/s corresponds to 128-bit baseline flits,
// 8 KGb/s to 512-bit flits; the sweep shows that a mesh barely benefits
// from extra bandwidth (serialization only) while good express placement
// converts it into real latency reduction.

#include <cstdio>
#include <iostream>

#include "core/c_sweep.hpp"
#include "exp/scenarios.hpp"
#include "util/numeric.hpp"
#include "util/table.hpp"

using namespace xlp;

namespace {

struct BandwidthCase {
  const char* label;
  int base_flit_bits;
};

}  // namespace

int main() {
  std::printf("Fig. 11 reproduction — paper expectations: from 2 to 8 KGb/s "
              "the Mesh improves\nonly ~2.3%% (25.9 -> 25.3 cycles) while "
              "D&C_SA improves ~17.8%% (21.8 -> 17.9).\n\n");

  constexpr int n = 8;
  const BandwidthCase cases[] = {{"2KGb/s", 128}, {"4KGb/s", 256},
                                 {"8KGb/s", 512}};

  double mesh_first = 0.0, mesh_last = 0.0;
  double dcsa_first = 0.0, dcsa_last = 0.0;
  for (const auto& bw : cases) {
    core::SweepOptions options = exp::default_sweep_options(n);
    options.base_flit_bits = bw.base_flit_bits;
    Rng rng(17);
    const auto points = core::sweep_link_limits(n, n, options, rng);

    const auto mesh = topo::make_mesh(n, bw.base_flit_bits);
    const auto hfb = topo::make_hfb(n, bw.base_flit_bits);
    const double mesh_total =
        core::evaluate_design(mesh, options.latency, options.report_traffic)
            .total();
    const double hfb_total =
        core::evaluate_design(hfb, options.latency, options.report_traffic)
            .total();

    std::printf("--- bisection budget %s (baseline flit %d bits) ---\n",
                bw.label, bw.base_flit_bits);
    Table table({"C", "D&C_SA", "L_D", "L_S"});
    for (const auto& p : points)
      table.add_row({std::to_string(p.link_limit),
                     Table::fmt(p.breakdown.total()),
                     Table::fmt(p.breakdown.head),
                     Table::fmt(p.breakdown.serialization)});
    table.print(std::cout);
    const auto& best = points[core::best_point(points)];
    std::printf("  Mesh %.2f  HFB %.2f  best D&C_SA %.2f (C=%d)\n\n",
                mesh_total, hfb_total, best.breakdown.total(),
                best.link_limit);
    if (bw.base_flit_bits == 128) {
      mesh_first = mesh_total;
      dcsa_first = best.breakdown.total();
    }
    if (bw.base_flit_bits == 512) {
      mesh_last = mesh_total;
      dcsa_last = best.breakdown.total();
    }
  }
  std::printf("summary 2K -> 8K: Mesh improves %.1f%%, D&C_SA improves "
              "%.1f%%\n",
              -percent_change(mesh_last, mesh_first),
              -percent_change(dcsa_last, dcsa_first));
  return 0;
}
