// Tests for the experiment-harness helpers (src/exp) plus a couple of
// structural properties that did not fit elsewhere.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdlib>
#include <sstream>

#include "exp/scenarios.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "util/check.hpp"

namespace xlp {
namespace {

TEST(Scenarios, FixedDesignsAreTheSchemesOfSection51) {
  const auto designs = exp::fixed_designs(8);
  ASSERT_EQ(designs.size(), 2u);
  EXPECT_EQ(designs[0].name, "Mesh");
  EXPECT_EQ(designs[0].design.link_limit(), 1);
  EXPECT_EQ(designs[1].name, "HFB");
  EXPECT_EQ(designs[1].design.link_limit(), 4);
}

TEST(Scenarios, PaperSaParamsAreTable1) {
  const auto params = exp::paper_sa_params();
  EXPECT_DOUBLE_EQ(params.initial_temperature, 10.0);
  EXPECT_EQ(params.total_moves, 10000);
  EXPECT_DOUBLE_EQ(params.cool_scale, 2.0);
  EXPECT_EQ(params.moves_per_cool, 1000);
}

TEST(Scenarios, BenchScaleReadsEnvironment) {
  // setenv/unsetenv: serial test, no other thread reads the env here.
  setenv("XLP_BENCH_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(exp::bench_scale(), 0.5);
  // Anything outside (0, 1e6] reads as 1.0: a huge scale would overflow
  // the callers' long budgets and end up at their floors instead.
  for (const char* bad : {"garbage", "inf", "nan", "1e300", "-1"}) {
    setenv("XLP_BENCH_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(exp::bench_scale(), 1.0) << bad;
  }
  setenv("XLP_BENCH_SCALE", "1e6", 1);
  EXPECT_DOUBLE_EQ(exp::bench_scale(), 1e6);
  unsetenv("XLP_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(exp::bench_scale(), 1.0);
}

TEST(Scenarios, DefaultSimConfigScales) {
  setenv("XLP_BENCH_SCALE", "0.2", 1);
  const auto small = exp::default_sim_config(1);
  unsetenv("XLP_BENCH_SCALE");
  const auto full = exp::default_sim_config(1);
  EXPECT_LT(small.measure_cycles, full.measure_cycles);
  EXPECT_EQ(full.measure_cycles, 10000);
}

TEST(VerticalCutUse, HandComputedCase) {
  // One packet 0 -> 3 on a 4x4 mesh: its three row hops cross cuts 0,1,2
  // exactly once each, rightward.
  const auto design = topo::make_mesh(4);
  const sim::Network net(design, route::HopWeights{});
  sim::SimConfig config;
  config.warmup_cycles = 50;
  config.measure_cycles = 500;
  sim::Simulator simulator(net, config);
  simulator.schedule_packet(0, 3, 128, 60);  // one flit
  const auto stats = simulator.run();

  for (int cut = 0; cut < 3; ++cut) {
    const auto right = exp::vertical_cut_use(net, stats, cut, true);
    const auto left = exp::vertical_cut_use(net, stats, cut, false);
    EXPECT_EQ(right.channels, 4);  // one rightward channel per row
    EXPECT_NEAR(right.used_bits_per_cycle * config.measure_cycles,
                256.0, 1e-9)
        << "cut " << cut;
    EXPECT_DOUBLE_EQ(left.used_bits_per_cycle, 0.0);
  }
}

TEST(VerticalCutUse, Validation) {
  const auto design = topo::make_mesh(4);
  const sim::Network net(design, route::HopWeights{});
  sim::SimConfig config;
  config.warmup_cycles = 50;
  config.measure_cycles = 200;
  sim::Simulator simulator(net, config);
  const auto stats = simulator.run();
  EXPECT_THROW(exp::vertical_cut_use(net, stats, 3, true),
               PreconditionError);
  EXPECT_THROW(exp::vertical_cut_use(net, stats, -1, true),
               PreconditionError);
}

TEST(VerticalCutUse, ExpressLinksCountOncePerCrossedCut) {
  // A length-3 express link crossing cuts 0..2 carries the flit once per
  // *channel*, and that channel crosses all three cuts.
  const topo::RowTopology row(4, {{0, 3}});
  const auto design = topo::make_design(row, 2);
  const sim::Network net(design, route::HopWeights{});
  sim::SimConfig config;
  config.warmup_cycles = 50;
  config.measure_cycles = 500;
  sim::Simulator simulator(net, config);
  simulator.schedule_packet(0, 3, 128, 60);  // rides the express link
  const auto stats = simulator.run();
  for (int cut = 0; cut < 3; ++cut) {
    const auto right = exp::vertical_cut_use(net, stats, cut, true);
    EXPECT_NEAR(right.used_bits_per_cycle * config.measure_cycles, 128.0,
                1e-9);
  }
}

TEST(ProfileOnMesh, RectangularWorkloads) {
  const traffic::Flows demand(4, 6, {{0, 23, 0.01}, {23, 0, 0.01}});
  const auto profile = exp::profile_on_mesh(demand, 4000, 5);
  EXPECT_TRUE(profile.stats.drained);
  EXPECT_EQ(profile.observed.width(), 4);
  EXPECT_EQ(profile.observed.height(), 6);
  EXPECT_GT(test::DenseDemand(profile.observed).rate(0, 23), 0.0);
}

TEST(DirectionalSymmetry, CostsAreDirectionSymmetric) {
  // Links are bidirectional, so the leftward problem mirrors the rightward
  // one: cost(i, j) == cost(j, i) for every placement.
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const auto row = test::random_valid_row(9, 3, rng);
    const route::DirectionalShortestPaths paths(row, route::HopWeights{});
    for (int i = 0; i < 9; ++i)
      for (int j = i + 1; j < 9; ++j) {
        EXPECT_DOUBLE_EQ(paths.cost(i, j), paths.cost(j, i))
            << row.to_string();
        EXPECT_EQ(paths.hops(i, j), paths.hops(j, i));
      }
  }
}

TEST(TraceRect, RoundTripsThroughTheTextFormat) {
  const traffic::Flows demand(6, 3, {{0, 17, 0.02}});
  Rng rng(3);
  const auto trace = traffic::Trace::sample(demand, 1000, rng);
  EXPECT_EQ(trace.width(), 6);
  EXPECT_EQ(trace.height(), 3);
  EXPECT_THROW(trace.side(), PreconditionError);
  std::stringstream buffer;
  trace.save(buffer);
  EXPECT_EQ(traffic::Trace::load(buffer), trace);
}

// A replay keeps no state per pair of nodes: a header-only 128 x 128 trace
// (16384 routers, 2^28 pairs) delivers nothing in far less memory than a
// dense rate matrix's 2 GB. gtest_discover_tests runs each test in its own
// process, so the peak is this test's alone.
TEST(ReplayTrace, LargeEmptyTraceKeepsNoPerPairState) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow memory inflates the peak RSS";
#else
  std::istringstream in("xlptrace 128 128 100\n");
  const auto stats = exp::replay_trace(
      topo::make_mesh(128), traffic::Trace::load(in), sim::SimConfig{});
  EXPECT_EQ(stats.packets_finished, 0);
  rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  EXPECT_LT(usage.ru_maxrss, 512L * 1024) << "peak RSS in KiB";
#endif
}

}  // namespace
}  // namespace xlp
