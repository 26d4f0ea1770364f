#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "traffic/app_models.hpp"
#include "test_util.hpp"
#include "traffic/demand.hpp"
#include "traffic/flows.hpp"
#include "traffic/injection.hpp"
#include "traffic/patterns.hpp"
#include "traffic/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xlp::traffic {
namespace {

/// Offered load of one source node, packets/cycle.
double row_sum(const Demand& demand, int src) {
  std::vector<double> row(
      static_cast<std::size_t>(demand.width()) * demand.height());
  demand.fill(src, row);
  double total = 0.0;
  for (const double rate : row) total += rate;
  return total;
}

/// Row block (or column block) `index` of `m` as a vector.
std::vector<double> block_of(const latency::LineDemand& m, bool row,
                             int index) {
  const int length = row ? m.width() : m.height();
  std::vector<double> block(static_cast<std::size_t>(length) * length);
  if (row)
    m.row_block(index, block);
  else
    m.col_block(index, block);
  return block;
}

/// Sum of a length x length block without its diagonal.
double off_diagonal_sum(const std::vector<double>& block, int length) {
  double total = 0.0;
  for (int a = 0; a < length; ++a)
    for (int b = 0; b < length; ++b)
      if (a != b) total += block[static_cast<std::size_t>(a) * length + b];
  return total;
}

TEST(Patterns, NamesRoundTrip) {
  for (Pattern p :
       {Pattern::kUniformRandom, Pattern::kTranspose, Pattern::kBitReverse,
        Pattern::kBitComplement, Pattern::kShuffle, Pattern::kTornado,
        Pattern::kNeighbor, Pattern::kHotspot}) {
    const auto round = pattern_from_string(to_string(p));
    ASSERT_TRUE(round.has_value());
    EXPECT_EQ(*round, p);
  }
  EXPECT_FALSE(pattern_from_string("nonsense").has_value());
}

TEST(Patterns, TransposeSwapsCoordinates) {
  // (x,y)=(3,1) on 8x8 is node 11; transpose target (1,3) is node 25.
  EXPECT_EQ(pattern_destination(Pattern::kTranspose, 11, 8), 25);
  // Diagonal nodes map to themselves -> no traffic.
  EXPECT_FALSE(pattern_destination(Pattern::kTranspose, 9, 8).has_value());
}

TEST(Patterns, BitComplementInvertsBits) {
  EXPECT_EQ(pattern_destination(Pattern::kBitComplement, 0, 8), 63);
  EXPECT_EQ(pattern_destination(Pattern::kBitComplement, 21, 8), 63 - 21);
}

TEST(Patterns, BitReverseReversesIdBits) {
  // 64 nodes -> 6 bits; 0b000001 -> 0b100000 = 32.
  EXPECT_EQ(pattern_destination(Pattern::kBitReverse, 1, 8), 32);
  EXPECT_EQ(pattern_destination(Pattern::kBitReverse, 32, 8), 1);
  // Palindromic ids self-map.
  EXPECT_FALSE(
      pattern_destination(Pattern::kBitReverse, 0b100001, 8).has_value());
}

TEST(Patterns, ShuffleRotatesLeft) {
  EXPECT_EQ(pattern_destination(Pattern::kShuffle, 1, 8), 2);
  EXPECT_EQ(pattern_destination(Pattern::kShuffle, 32, 8), 1);
  EXPECT_FALSE(pattern_destination(Pattern::kShuffle, 63, 8).has_value());
}

TEST(Patterns, TornadoShiftsBothDimensions) {
  // n=8: shift 3; (0,0) -> (3,3) = 27.
  EXPECT_EQ(pattern_destination(Pattern::kTornado, 0, 8), 27);
}

TEST(Patterns, NeighborSendsRight) {
  EXPECT_EQ(pattern_destination(Pattern::kNeighbor, 0, 8), 1);
  EXPECT_EQ(pattern_destination(Pattern::kNeighbor, 7, 8), 0);  // wraps
}

TEST(Patterns, BitPatternsRequirePowerOfTwoNodes) {
  EXPECT_THROW(pattern_destination(Pattern::kBitReverse, 0, 6),
               PreconditionError);
  EXPECT_THROW(pattern_destination(Pattern::kBitComplement, 0, 6),
               PreconditionError);
  // Position-based patterns are fine on any size.
  EXPECT_NO_THROW(pattern_destination(Pattern::kTranspose, 0, 6));
}

TEST(Patterns, OnlyPermutationsHaveOneDestination) {
  // Uniform-random and hotspot demand is a distribution, given by
  // DemandRows, not a per-source map.
  EXPECT_THROW((void)pattern_destination(Pattern::kUniformRandom, 0, 4),
               PreconditionError);
  EXPECT_THROW((void)pattern_destination(Pattern::kHotspot, 0, 4),
               PreconditionError);
}

// --------------------------------------------------------------------------

TEST(Flows, BasicAccounting) {
  const Flows m(4, 4, {{0, 5, 0.25}, {1, 0, 0.1}, {0, 5, 0.25}});
  EXPECT_EQ(m.width(), 4);
  EXPECT_EQ(m.height(), 4);
  ASSERT_EQ(m.entries().size(), 2u);
  EXPECT_EQ(m.entries()[0], (Flow{0, 5, 0.5}));
  EXPECT_EQ(m.entries()[1], (Flow{1, 0, 0.1}));
  EXPECT_EQ(test::DenseDemand(m).rate(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.total_rate(), 0.6);
  EXPECT_DOUBLE_EQ(row_sum(m, 0), 0.5);
  EXPECT_DOUBLE_EQ(row_sum(m, 1), 0.1);
  EXPECT_DOUBLE_EQ(Flows(4, 4, {}).total_rate(), 0.0);
}

TEST(Flows, RejectsSelfTrafficNegativesAndNodesOutOfRange) {
  EXPECT_THROW(Flows(4, 4, {{3, 3, 0.1}}), PreconditionError);
  EXPECT_THROW(Flows(4, 4, {{0, 1, -0.1}}), PreconditionError);
  EXPECT_THROW(Flows(4, 4, {{0, 16, 0.1}}), PreconditionError);
  EXPECT_THROW(Flows(4, 4, {{-1, 2, 0.1}}), PreconditionError);
  EXPECT_THROW(Flows(1, 4, {}), PreconditionError);
  // Zero rates carry no traffic and are dropped.
  EXPECT_TRUE(Flows(4, 4, {{0, 1, 0.0}}).entries().empty());
}

TEST(Flows, MergesRepeatedPairsInInputOrder) {
  // 1e16 + 1 rounds back to 1e16, so the order of the adds shows in the
  // bits: the first-listed entry comes first, as add_rate() calls would.
  const Flows m(2, 2, {{1, 0, 1e16}, {0, 3, 0.5}, {1, 0, 1.0}, {1, 0, 1.0}});
  ASSERT_EQ(m.entries().size(), 2u);
  EXPECT_EQ(m.entries()[1], (Flow{1, 0, (1e16 + 1.0) + 1.0}));
  EXPECT_NE(m.entries()[1].rate, 1e16 + (1.0 + 1.0));
}

TEST(Flows, BlocksEqualADenseFoldOfTheirRows) {
  // Random sparse lists that repeat pairs and leave source rows empty: every
  // line block is bit-equal to the dense fold of the list's own rows.
  Rng rng(47);
  for (const auto& [width, height] :
       {std::pair{4, 4}, std::pair{6, 3}, std::pair{3, 7}, std::pair{8, 8}}) {
    const int nodes = width * height;
    std::vector<Flow> entries;
    for (int k = 0; k < 3 * nodes; ++k) {
      const int src = static_cast<int>(rng.uniform_below(nodes / 2)) * 2;
      const int dst = static_cast<int>(rng.uniform_below(nodes));
      if (src != dst) entries.push_back({src, dst, rng.uniform01()});
    }
    const Flows flows(width, height, entries);
    const test::DenseDemand dense(flows);
    for (int y = 0; y < height; ++y)
      EXPECT_EQ(block_of(flows, true, y), block_of(dense, true, y)) << y;
    for (int x = 0; x < width; ++x)
      EXPECT_EQ(block_of(flows, false, x), block_of(dense, false, x)) << x;
    // Odd sources send nothing.
    std::vector<double> row(static_cast<std::size_t>(nodes));
    flows.fill(1, row);
    EXPECT_EQ(row, std::vector<double>(row.size(), 0.0));
  }
}

TEST(DemandRows, DeterministicPatternRows) {
  const test::DenseDemand m(DemandRows(Pattern::kTranspose, 8, 0.02));
  EXPECT_DOUBLE_EQ(m.rate(11, 25), 0.02);
  EXPECT_DOUBLE_EQ(m.rate(11, 12), 0.0);
  // Diagonal sources inject nothing.
  EXPECT_DOUBLE_EQ(row_sum(DemandRows(Pattern::kTranspose, 8, 0.02), 9), 0.0);
}

TEST(DemandRows, UniformRandomRows) {
  const DemandRows rows(Pattern::kUniformRandom, 4, 0.1);
  const test::DenseDemand m(rows);
  for (int src = 0; src < 16; ++src) {
    EXPECT_NEAR(row_sum(rows, src), 0.1, 1e-12);
    EXPECT_DOUBLE_EQ(m.rate(src, src), 0.0);
  }
}

TEST(DemandRows, HotspotRowsFavorHubs) {
  const test::DenseDemand m(DemandRows(Pattern::kHotspot, 8, 0.1));
  const int q = 2;
  const int hub = q * 8 + q;
  double hub_in = 0.0, ordinary_in = 0.0;
  for (int src = 0; src < 64; ++src) {
    hub_in += m.rate(src, hub);
    ordinary_in += m.rate(src, 12);  // a non-hub node
  }
  EXPECT_GT(hub_in, 3.0 * ordinary_in);
}

TEST(Flows, RowBlocksCaptureRowSegments) {
  // Flow (1,0) -> (3,2): row 0 segment from x=1 to x=3.
  // Flow (2,0) -> (2,3): x equal -> no row segment, on the diagonal.
  const Flows m(4, 4, {{1, 2 * 4 + 3, 0.5}, {2, 3 * 4 + 2, 0.7}});
  const auto a0 = block_of(m, true, 0);
  EXPECT_DOUBLE_EQ(a0[1 * 4 + 3], 0.5);
  EXPECT_DOUBLE_EQ(off_diagonal_sum(a0, 4), 0.5);
  EXPECT_DOUBLE_EQ(a0[2 * 4 + 2], 0.7);
  // Row 1 has no sources.
  for (double x : block_of(m, true, 1)) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Flows, ColBlocksCaptureColumnSegments) {
  // Flow (1,0) -> (3,2): column 3 segment from y=0 to y=2.
  // Flow (0,2) -> (3,2): y equal -> no column segment, on the diagonal.
  const Flows m(4, 4, {{1, 2 * 4 + 3, 0.5}, {2 * 4 + 0, 2 * 4 + 3, 0.7}});
  const auto b3 = block_of(m, false, 3);
  EXPECT_DOUBLE_EQ(b3[0 * 4 + 2], 0.5);
  EXPECT_DOUBLE_EQ(off_diagonal_sum(b3, 4), 0.5);
  EXPECT_DOUBLE_EQ(b3[2 * 4 + 2], 0.7);
}

TEST(Flows, RowAndColumnBlocksConserveDemand) {
  // Every flow with dx != 0 contributes its rate once off the diagonal of
  // some row block; every flow with dy != 0 once off the diagonal of some
  // column block.
  const Flows m =
      test::flows_of(DemandRows(Pattern::kUniformRandom, 8, 0.05));
  double row_total = 0.0, col_total = 0.0;
  for (int y = 0; y < 8; ++y)
    row_total += off_diagonal_sum(block_of(m, true, y), 8);
  for (int x = 0; x < 8; ++x)
    col_total += off_diagonal_sum(block_of(m, false, x), 8);

  double expect_row = 0.0, expect_col = 0.0;
  for (const Flow& f : m.entries()) {
    if (f.src % 8 != f.dst % 8) expect_row += f.rate;
    if (f.src / 8 != f.dst / 8) expect_col += f.rate;
  }
  EXPECT_NEAR(row_total, expect_row, 1e-9);
  EXPECT_NEAR(col_total, expect_col, 1e-9);
}

TEST(Flows, ObservedDemandOfALargeTraceKeepsOnlyItsPairs) {
  // A 256 x 256 trace (65536 nodes) of five packets, three of them one
  // pair: its observed demand holds the two distinct pairs, nothing per
  // node pair of the network.
  constexpr int kSide = 256;
  constexpr int kFar = kSide * kSide - 1;
  const Trace trace(kSide, 7,
                    {{0, 1, kFar, 128},
                     {1, 300, 5, 512},
                     {2, 1, kFar, 128},
                     {4, 1, kFar, 64},
                     {6, 300, 5, 128}});
  const Flows observed = trace.observed();
  const double inv = 1.0 / 7.0;
  ASSERT_EQ(observed.entries().size(), 2u);
  EXPECT_EQ(observed.entries()[0], (Flow{1, kFar, (inv + inv) + inv}));
  EXPECT_EQ(observed.entries()[1], (Flow{300, 5, inv + inv}));
  EXPECT_EQ(observed.total_rate(), ((inv + inv) + inv) + (inv + inv));
  // (1, 0) -> (255, 255) runs row 0 from x = 1 to 255 and column 255 from
  // y = 0 to 255; (44, 1) -> (5, 0) runs row 1 from 44 to 5 and column 5
  // from 1 to 0.
  const auto row0 = block_of(observed, true, 0);
  EXPECT_EQ(row0[1 * kSide + 255], (inv + inv) + inv);
  EXPECT_EQ(off_diagonal_sum(row0, kSide), (inv + inv) + inv);
  EXPECT_EQ(block_of(observed, true, 1)[44 * kSide + 5], inv + inv);
  EXPECT_EQ(block_of(observed, false, 255)[0 * kSide + 255],
            (inv + inv) + inv);
  EXPECT_EQ(block_of(observed, false, 5)[1 * kSide + 0], inv + inv);
  EXPECT_EQ(off_diagonal_sum(block_of(observed, false, 7), kSide), 0.0);
}

// --------------------------------------------------------------------------

TEST(AppModels, TenParsecBenchmarks) {
  const auto& models = parsec_models();
  ASSERT_EQ(models.size(), 10u);
  EXPECT_EQ(models.front().name, "blackscholes");
  EXPECT_EQ(models.back().name, "x264");
}

TEST(AppModels, LookupByName) {
  EXPECT_EQ(parsec_model("canneal").name, "canneal");
  EXPECT_THROW(parsec_model("doom"), PreconditionError);
}

TEST(AppModels, MatricesAreDeterministic) {
  const test::DenseDemand a(DemandRows(parsec_model("ferret"), 8));
  const test::DenseDemand b(DemandRows(parsec_model("ferret"), 8));
  for (int s = 0; s < 64; ++s)
    for (int d = 0; d < 64; ++d)
      EXPECT_DOUBLE_EQ(a.rate(s, d), b.rate(s, d));
}

TEST(AppModels, NodeRatesMatchInjectionRate) {
  for (const AppModel& model : parsec_models()) {
    const DemandRows m(model, 8);
    for (int src = 0; src < 64; ++src) {
      // Hub self-traffic is dropped, so node rate is at most the nominal
      // injection rate and within hotspot_share of it.
      EXPECT_LE(row_sum(m, src), model.injection_rate + 1e-12);
      EXPECT_GE(row_sum(m, src),
                model.injection_rate * (1.0 - model.hotspot_share) - 1e-12);
    }
  }
}

TEST(AppModels, LocalityConcentratesNearbyTraffic) {
  AppModel local{"local_test", 0.02, 0.9, 0.0, 0, 1.0};
  AppModel uniform{"uniform_test", 0.02, 0.0, 0.0, 0, 1.0};
  const test::DenseDemand lm(DemandRows(local, 8));
  const test::DenseDemand um(DemandRows(uniform, 8));
  // From the center node, a neighbor should get much more traffic under the
  // local model than under the uniform one.
  const int center = 3 * 8 + 3;
  const int neighbor = 3 * 8 + 4;
  const int corner = 63;
  EXPECT_GT(lm.rate(center, neighbor), 5.0 * um.rate(center, neighbor));
  EXPECT_LT(lm.rate(center, corner), um.rate(center, corner));
}

TEST(AppModels, DifferentBenchmarksDiffer) {
  const Flows a = test::flows_of(DemandRows(parsec_model("blackscholes"), 8));
  const Flows b = test::flows_of(DemandRows(parsec_model("canneal"), 8));
  EXPECT_NE(a.total_rate(), b.total_rate());
}

TEST(AppModels, RejectsBadShares) {
  AppModel bad{"bad", 0.02, 0.8, 0.5, 2, 1.0};  // shares sum > 1
  EXPECT_THROW(DemandRows(bad, 4), PreconditionError);
}

TEST(AppModels, ParsecAverageIsTheMeanOfModels) {
  const Flows average = parsec_average(4);
  const test::DenseDemand avg(average);
  std::vector<test::DenseDemand> models;
  double expected_total = 0.0;
  for (const AppModel& m : parsec_models()) {
    models.emplace_back(DemandRows(m, 4));
    expected_total += test::flows_of(DemandRows(m, 4)).total_rate();
  }
  EXPECT_NEAR(average.total_rate(), expected_total / 10.0, 1e-9);
  // Each pair is its models' rates / 10, added in model order.
  for (int src = 0; src < 16; ++src)
    for (int dst = 0; dst < 16; ++dst) {
      double sum = 0.0;
      for (const test::DenseDemand& model : models)
        sum += model.rate(src, dst) / 10.0;
      EXPECT_EQ(avg.rate(src, dst), sum) << src << " -> " << dst;
    }
}

TEST(Workloads, ResolvePatternsAndParsecModels) {
  EXPECT_TRUE(is_known_workload("transpose"));
  EXPECT_TRUE(is_known_workload("canneal"));
  EXPECT_FALSE(is_known_workload("doom"));
  EXPECT_EQ(test::flows_of(workload_rows("transpose", 4, 0.01)).total_rate(),
            test::flows_of(DemandRows(Pattern::kTranspose, 4, 0.01))
                .total_rate());
  // A PARSEC model brings its own injection rate; the load is unused.
  EXPECT_EQ(test::flows_of(workload_rows("canneal", 4, 0.5)).total_rate(),
            test::flows_of(DemandRows(parsec_model("canneal"), 4))
                .total_rate());
  EXPECT_THROW((void)workload_rows("doom", 4, 0.01), PreconditionError);
}

TEST(Workloads, LoadOutsideZeroToOneIsRejected) {
  for (const char* name : {"transpose", "canneal"}) {
    EXPECT_THROW((void)workload_rows(name, 4, -1.0), PreconditionError);
    EXPECT_THROW((void)workload_rows(name, 4, 0.0), PreconditionError);
    EXPECT_THROW((void)workload_rows(name, 4, 5.0), PreconditionError);
    EXPECT_NO_THROW((void)workload_rows(name, 4, 1.0));
  }
}

/// A 2 x 2 demand whose node 0 sends `row` and every other node nothing,
/// unchecked, as a source other than Flows or DemandRows may produce.
class RawDemand final : public Demand {
 public:
  explicit RawDemand(std::vector<double> row) : row_(std::move(row)) {}
  [[nodiscard]] int width() const override { return 2; }
  [[nodiscard]] int height() const override { return 2; }
  void fill(int src, std::span<double> row) const override {
    for (std::size_t dst = 0; dst < row.size(); ++dst)
      row[dst] = src == 0 ? row_[dst] : 0.0;
  }
  void row_block(int, std::span<double>) const override {}
  void col_block(int, std::span<double>) const override {}

 private:
  std::vector<double> row_;
};

TEST(Injection, RejectsRowsBernoulliInjectionCannotDraw) {
  EXPECT_THROW(Injection(RawDemand({0.0, -0.1, 0.2, 0.0})),
               PreconditionError);
  EXPECT_THROW(Injection(RawDemand({0.1, 0.2, 0.0, 0.0})),
               PreconditionError);  // self-traffic
  EXPECT_THROW(Injection(RawDemand({0.0, 0.9, 0.6, 0.0})),
               PreconditionError);  // 1.5 packets per cycle
  EXPECT_NO_THROW(Injection(RawDemand({0.0, 0.5, 0.5, 0.0})));
}

TEST(Injection, RowsSampleAsTheirFlowsDo) {
  for (const char* name : {"hotspot", "transpose", "canneal"}) {
    const DemandRows rows = workload_rows(name, 4, 0.2);
    Rng from_rows(9);
    Rng from_flows(9);
    EXPECT_EQ(Trace::sample(rows, 200, from_rows),
              Trace::sample(test::flows_of(rows), 200, from_flows))
        << name;
  }
}

}  // namespace
}  // namespace xlp::traffic
