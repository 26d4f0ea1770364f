#include <gtest/gtest.h>

#include "exp/scenarios.hpp"
#include "power/area.hpp"
#include "power/model.hpp"
#include "sim/config.hpp"
#include "topo/builders.hpp"
#include "traffic/app_models.hpp"
#include "util/check.hpp"

namespace xlp::power {
namespace {

sim::ActivityCounters fake_activity(long events, int flit_bits) {
  sim::ActivityCounters a;
  a.buffer_writes = events;
  a.buffer_reads = events;
  a.crossbar_traversals = events;
  a.link_flit_units = events;
  a.measured_cycles = 10000;
  a.flit_bits = flit_bits;
  return a;
}

TEST(PowerModel, ValidatesInputs) {
  const auto mesh = topo::make_mesh(8);
  sim::ActivityCounters a = fake_activity(100, 256);
  a.measured_cycles = 0;
  EXPECT_THROW(evaluate_power(mesh, a, 40960), PreconditionError);
  a = fake_activity(100, 128);  // wrong width for this design
  EXPECT_THROW(evaluate_power(mesh, a, 40960), PreconditionError);
  a = fake_activity(100, 256);
  EXPECT_THROW(evaluate_power(mesh, a, 0), PreconditionError);
}

TEST(PowerModel, ZeroActivityMeansZeroDynamic) {
  const auto mesh = topo::make_mesh(8);
  const PowerReport report =
      evaluate_power(mesh, fake_activity(0, 256), 40960);
  EXPECT_DOUBLE_EQ(report.dynamic_total(), 0.0);
  EXPECT_GT(report.static_total(), 0.0);
}

TEST(PowerModel, DynamicScalesLinearlyWithActivity) {
  const auto mesh = topo::make_mesh(8);
  const PowerReport one = evaluate_power(mesh, fake_activity(1000, 256),
                                         40960);
  const PowerReport two = evaluate_power(mesh, fake_activity(2000, 256),
                                         40960);
  EXPECT_NEAR(two.dynamic_total(), 2.0 * one.dynamic_total(), 1e-12);
  EXPECT_DOUBLE_EQ(two.static_total(), one.static_total());
}

TEST(PowerModel, BufferStaticEqualAcrossSchemes) {
  // Section 4.6: the buffer budget is equalized, so buffer leakage matches.
  const auto mesh = topo::make_mesh(8);
  const auto hfb = topo::make_hfb(8);
  const long budget = 40960;
  const PowerReport pm = evaluate_power(mesh, fake_activity(10, 256), budget);
  const PowerReport ph = evaluate_power(hfb, fake_activity(10, 64), budget);
  EXPECT_DOUBLE_EQ(pm.static_buffer_w, ph.static_buffer_w);
}

TEST(PowerModel, CrossbarStaticDoesNotExplodeWithExpressLinks) {
  // Fig. 10's claim: thanks to the narrower flits and the sub-linear port
  // growth of good placements, crossbar leakage stays at or below mesh.
  const auto mesh = topo::make_mesh(8);
  const topo::RowTopology paper_row(8, {{1, 3}, {3, 7}});
  const auto dcsa = topo::make_design(paper_row, 4);
  const long budget = 40960;
  const PowerReport pm = evaluate_power(mesh, fake_activity(10, 256), budget);
  const PowerReport pd = evaluate_power(dcsa, fake_activity(10, 64), budget);
  EXPECT_LE(pd.static_crossbar_w, pm.static_crossbar_w * 1.05);
}

TEST(PowerModel, StaticDominatesAtParsecLoads) {
  // Section 5.5: static is about two thirds of total router power. Measure
  // real activity on the mesh at canneal's load.
  const auto mesh = topo::make_mesh(8);
  const traffic::DemandRows demand(traffic::parsec_model("canneal"), 8);
  sim::SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 3000;
  config.drain_cycles = 3000;
  const auto stats = exp::simulate_design(mesh, demand, config);
  const PowerReport report =
      evaluate_power(mesh, stats.activity, config.buffer_bits_per_router);
  const double static_share = report.static_total() / report.total();
  EXPECT_GT(static_share, 0.5);
  EXPECT_LT(static_share, 0.9);
}

TEST(PowerModel, ReportComponentsAddUp) {
  const auto mesh = topo::make_mesh(4);
  const PowerReport r = evaluate_power(mesh, fake_activity(500, 256), 40960);
  EXPECT_DOUBLE_EQ(r.total(), r.dynamic_total() + r.static_total());
  EXPECT_DOUBLE_EQ(r.dynamic_total(),
                   r.dynamic_buffer_w + r.dynamic_crossbar_w +
                       r.dynamic_link_w);
  EXPECT_DOUBLE_EQ(r.static_total(),
                   r.static_buffer_w + r.static_crossbar_w +
                       r.static_other_w);
}

// --------------------------------------------------------------------------
// Area / routing-table overhead

TEST(Area, TableOverheadBelowHalfPercent) {
  // Section 4.5.2: DSENT at 32 nm puts the lookup-table overhead below 0.5%
  // of the router for every evaluated size.
  for (int n : {4, 8, 16}) {
    const auto mesh = topo::make_mesh(n);
    const AreaReport report = evaluate_area(mesh, 40960);
    EXPECT_LT(report.table_overhead_fraction(), 0.005) << "n=" << n;
    EXPECT_GT(report.routing_table_um2, 0.0);
  }
}

TEST(Area, TablesGrowLinearlyWithRowSize) {
  const AreaReport small = evaluate_area(topo::make_mesh(4), 40960);
  const AreaReport large = evaluate_area(topo::make_mesh(8), 40960);
  EXPECT_NEAR(large.routing_table_um2 / small.routing_table_um2, 7.0 / 3.0,
              1e-9);
}

TEST(Area, ValidatesBudget) {
  EXPECT_THROW(evaluate_area(topo::make_mesh(4), 0), PreconditionError);
}

}  // namespace
}  // namespace xlp::power
