// Regression guard on the reproduction itself: the headline quantities the
// paper reports must stay inside their bands. Budgets are reduced versus
// the benches (this suite must stay fast) so the bands are generous — the
// full-budget numbers live in EXPERIMENTS.md.

#include <gtest/gtest.h>

#include "core/branch_bound.hpp"
#include "core/c_sweep.hpp"
#include "exp/scenarios.hpp"
#include "latency/model.hpp"
#include "topo/builders.hpp"
#include "util/numeric.hpp"

namespace xlp {
namespace {

core::SweepOptions quick_options() {
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(3000);
  options.latency = latency::LatencyParams::zero_load();
  return options;
}

double best_total(int n, std::uint64_t seed) {
  auto options = quick_options();
  Rng rng(seed);
  const auto points = core::sweep_link_limits(n, n, options, rng);
  return points[core::best_point(points)].breakdown.total();
}

double mesh_total(int n) {
  return core::evaluate_design(topo::make_mesh(n),
                               latency::LatencyParams::zero_load(), {})
      .total();
}

double hfb_total(int n) {
  return core::evaluate_design(topo::make_hfb(n),
                               latency::LatencyParams::zero_load(), {})
      .total();
}

TEST(PaperRegression, Headline4x4) {
  // Paper: 8.1% vs Mesh, parity with HFB.
  const double reduction = -percent_change(best_total(4, 1), mesh_total(4));
  EXPECT_GE(reduction, 6.0);
  EXPECT_LE(reduction, 10.0);
}

TEST(PaperRegression, Headline8x8) {
  // Paper: 23.5% vs Mesh, 8.0% vs HFB.
  const double best = best_total(8, 2);
  EXPECT_GE(-percent_change(best, mesh_total(8)), 20.0);
  EXPECT_GE(-percent_change(best, hfb_total(8)), 4.0);
}

TEST(PaperRegression, Headline16x16) {
  // Paper: 36.4% vs Mesh, 20.1% vs HFB.
  const double best = best_total(16, 3);
  EXPECT_GE(-percent_change(best, mesh_total(16)), 32.0);
  EXPECT_GE(-percent_change(best, hfb_total(16)), 15.0);
}

TEST(PaperRegression, Table2ExactCells) {
  // The four paper cells our calibrated model lands on exactly.
  const auto params = latency::LatencyParams::zero_load();
  EXPECT_NEAR(
      latency::MeshLatencyModel(topo::make_mesh(4), params).worst_case(),
      28.2, 1e-9);
  EXPECT_NEAR(
      latency::MeshLatencyModel(topo::make_mesh(8), params).worst_case(),
      60.2, 1e-9);
  EXPECT_NEAR(
      latency::MeshLatencyModel(topo::make_hfb(8), params).worst_case(),
      38.2, 1e-9);
  EXPECT_NEAR(
      latency::MeshLatencyModel(topo::make_hfb(16), params).worst_case(),
      63.8, 1e-9);
}

TEST(PaperRegression, Fig11BandwidthScaling) {
  // Paper: 2 -> 8 KGb/s improves the Mesh ~2.3% and D&C_SA ~17.8%.
  auto at_bandwidth = [&](int base_bits, std::uint64_t seed) {
    auto options = quick_options();
    options.base_flit_bits = base_bits;
    Rng rng(seed);
    const auto points = core::sweep_link_limits(8, 8, options, rng);
    const double best = points[core::best_point(points)].breakdown.total();
    const double mesh =
        core::evaluate_design(topo::make_mesh(8, base_bits),
                              options.latency, {})
            .total();
    return std::pair{mesh, best};
  };
  const auto [mesh_2k, dcsa_2k] = at_bandwidth(128, 4);
  const auto [mesh_8k, dcsa_8k] = at_bandwidth(512, 5);

  const double mesh_gain = -percent_change(mesh_8k, mesh_2k);
  const double dcsa_gain = -percent_change(dcsa_8k, dcsa_2k);
  EXPECT_GE(mesh_gain, 1.0);
  EXPECT_LE(mesh_gain, 5.0);
  EXPECT_GE(dcsa_gain, 12.0);
  EXPECT_LE(dcsa_gain, 25.0);
  EXPECT_GT(dcsa_gain, 3.0 * mesh_gain);
}

TEST(PaperRegression, BestCIsInteriorAndSerializationScissors) {
  // Fig. 5's qualitative structure on 8x8: interior optimum; L_D strictly
  // decreasing in C; L_S strictly increasing.
  auto options = quick_options();
  Rng rng(6);
  const auto points = core::sweep_link_limits(8, 8, options, rng);
  const std::size_t best = core::best_point(points);
  EXPECT_GT(best, 0u);
  EXPECT_LT(best, points.size() - 1);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].breakdown.head, points[i - 1].breakdown.head + 0.15);
    EXPECT_GT(points[i].breakdown.serialization,
              points[i - 1].breakdown.serialization);
  }
}

TEST(PaperRegression, Fig12OptimalityGap) {
  // Paper: D&C_SA within 1.3% of the exact optimum everywhere verifiable.
  for (const auto& [n, limit] :
       {std::pair{4, 2}, std::pair{8, 2}, std::pair{8, 3}, std::pair{8, 4}}) {
    const core::RowObjective obj(n, route::HopWeights{});
    core::BranchAndBound bb(obj, limit);
    const double optimum = bb.solve().value;
    Rng rng(static_cast<std::uint64_t>(n + limit));
    const auto dcsa = core::solve_dcsa(obj, limit, core::SaParams{}, rng);
    EXPECT_LE(dcsa.value, optimum * 1.013 + 1e-12)
        << "P(" << n << "," << limit << ")";
  }
}

}  // namespace
}  // namespace xlp
