#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "latency/model.hpp"
#include "latency/packet_mix.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "traffic/app_models.hpp"
#include "traffic/demand.hpp"
#include "traffic/matrix.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xlp::latency {
namespace {

TEST(PacketMix, PaperDefaultRatio) {
  const PacketMix mix = PacketMix::paper_default();
  ASSERT_EQ(mix.classes().size(), 2u);
  // 1:4 long(512) to short(128).
  EXPECT_EQ(mix.classes()[0].bits, 128);
  EXPECT_DOUBLE_EQ(mix.classes()[0].fraction, 0.8);
  EXPECT_EQ(mix.classes()[1].bits, 512);
  EXPECT_DOUBLE_EQ(mix.classes()[1].fraction, 0.2);
}

TEST(PacketMix, ValidatesInput) {
  EXPECT_THROW(PacketMix({}), PreconditionError);
  EXPECT_THROW(PacketMix({{128, 0.5}}), PreconditionError);  // sum != 1
  EXPECT_THROW(PacketMix({{0, 1.0}}), PreconditionError);
  EXPECT_THROW(PacketMix({{128, -0.2}, {512, 1.2}}), PreconditionError);
  EXPECT_NO_THROW(PacketMix({{128, 0.5}, {512, 0.5}}));
}

TEST(PacketMix, FlitsForRoundsUp) {
  EXPECT_EQ(PacketMix::flits_for(512, 256), 2);
  EXPECT_EQ(PacketMix::flits_for(128, 256), 1);  // sub-flit packet: 1 flit
  EXPECT_EQ(PacketMix::flits_for(512, 64), 8);
  EXPECT_EQ(PacketMix::flits_for(129, 128), 2);
  EXPECT_THROW(PacketMix::flits_for(0, 64), PreconditionError);
  EXPECT_THROW(PacketMix::flits_for(64, 0), PreconditionError);
}

TEST(PacketMix, SerializationAcrossWidths) {
  const PacketMix mix = PacketMix::paper_default();
  // Figure 1's example: 256-bit flits -> 512-bit packet takes 2 flits.
  EXPECT_DOUBLE_EQ(mix.serialization_cycles(256), 0.8 * 1 + 0.2 * 2);  // 1.2
  EXPECT_DOUBLE_EQ(mix.serialization_cycles(128), 0.8 * 1 + 0.2 * 4);  // 1.6
  EXPECT_DOUBLE_EQ(mix.serialization_cycles(64), 0.8 * 2 + 0.2 * 8);   // 3.2
  EXPECT_DOUBLE_EQ(mix.serialization_cycles(16), 0.8 * 8 + 0.2 * 32);  // 12.8
  EXPECT_DOUBLE_EQ(mix.serialization_cycles(512), 1.0);
}

TEST(PacketMix, Averages) {
  const PacketMix mix = PacketMix::paper_default();
  EXPECT_DOUBLE_EQ(mix.average_bits(), 0.8 * 128 + 0.2 * 512);
  EXPECT_DOUBLE_EQ(mix.average_flits(64), 3.2);
}

TEST(LatencyParams, Defaults) {
  const LatencyParams zero = LatencyParams::zero_load();
  EXPECT_DOUBLE_EQ(zero.hop.router_cycles, 3.0);
  EXPECT_DOUBLE_EQ(zero.hop.link_cycles_per_unit, 1.0);
  EXPECT_DOUBLE_EQ(zero.contention_per_hop, 0.0);
  EXPECT_DOUBLE_EQ(LatencyParams::parsec_typical().contention_per_hop, 0.5);
}

// --------------------------------------------------------------------------
// Calibration against the paper's Table 2 (mesh rows match exactly).

TEST(MeshLatencyModel, Table2MeshWorstCase4x4) {
  const MeshLatencyModel model(topo::make_mesh(4),
                               LatencyParams::zero_load());
  EXPECT_NEAR(model.worst_case(), 28.2, 1e-9);
}

TEST(MeshLatencyModel, Table2MeshWorstCase8x8) {
  const MeshLatencyModel model(topo::make_mesh(8),
                               LatencyParams::zero_load());
  EXPECT_NEAR(model.worst_case(), 60.2, 1e-9);
}

TEST(MeshLatencyModel, PairLatencyDecomposition) {
  const MeshLatencyModel model(topo::make_mesh(8),
                               LatencyParams::zero_load());
  // (0,0) -> (1,0): 1 hop, 2 routers, distance 1: 2*3 + 1 = 7 head.
  EXPECT_DOUBLE_EQ(model.pair_head_latency(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(model.pair_latency(0, 1), 7.0 + 1.2);
  EXPECT_DOUBLE_EQ(model.pair_latency(5, 5), 0.0);
}

TEST(MeshLatencyModel, AverageOfMesh8x8) {
  const MeshLatencyModel model(topo::make_mesh(8),
                               LatencyParams::zero_load());
  const LatencyBreakdown avg = model.average();
  // Average ordered-pair Manhattan distance excluding self: (2*21/8)*(64/63).
  const double dist = 2.0 * (64.0 - 1.0) / (3.0 * 8.0) * 64.0 / 63.0;
  EXPECT_NEAR(avg.head, (dist + 1.0) * 3.0 + dist, 1e-9);
  EXPECT_DOUBLE_EQ(avg.serialization, 1.2);
  EXPECT_NEAR(model.average_hops(), dist, 1e-9);
}

TEST(MeshLatencyModel, ContentionAddsPerHop) {
  LatencyParams params = LatencyParams::zero_load();
  params.contention_per_hop = 0.5;
  const MeshLatencyModel model(topo::make_mesh(8), params);
  const MeshLatencyModel base(topo::make_mesh(8),
                              LatencyParams::zero_load());
  EXPECT_NEAR(model.average().head,
              base.average().head + 0.5 * base.average_hops(), 1e-9);
}

TEST(MeshLatencyModel, ExpressLinksReduceHeadRaiseSerialization) {
  const MeshLatencyModel mesh(topo::make_mesh(8), LatencyParams::zero_load());
  const MeshLatencyModel hfb(topo::make_hfb(8), LatencyParams::zero_load());
  EXPECT_LT(hfb.average().head, mesh.average().head);
  EXPECT_GT(hfb.average().serialization, mesh.average().serialization);
  EXPECT_DOUBLE_EQ(hfb.average().serialization, 3.2);  // 64-bit flits
}

TEST(MeshLatencyModel, HfbBeatsMeshAtTotalLatency8x8) {
  const MeshLatencyModel mesh(topo::make_mesh(8), LatencyParams::zero_load());
  const MeshLatencyModel hfb(topo::make_hfb(8), LatencyParams::zero_load());
  EXPECT_LT(hfb.average().total(), mesh.average().total());
}

TEST(MeshLatencyModel, WorstCaseOrderingMatchesTable2) {
  // Table 2's shape: express designs beat the mesh in worst-case zero-load
  // latency, and a coverage-oriented placement matches or beats the HFB.
  // (The strict D&C_SA < HFB comparison runs with the real optimizer in the
  // integration tests; the paper's Fig. 2 placement optimizes the *average*
  // and is deliberately not worst-case optimal.)
  const MeshLatencyModel mesh(topo::make_mesh(8), LatencyParams::zero_load());
  const MeshLatencyModel hfb(topo::make_hfb(8), LatencyParams::zero_load());
  const topo::RowTopology covering_row(8, {{0, 4}, {4, 7}, {1, 6}});
  const MeshLatencyModel covering(topo::make_design(covering_row, 4),
                                  LatencyParams::zero_load());
  EXPECT_NEAR(hfb.worst_case(), 38.2, 1e-9);  // paper Table 2, HFB 8x8
  EXPECT_LE(covering.worst_case(), hfb.worst_case());
  EXPECT_LT(hfb.worst_case(), mesh.worst_case());
}

TEST(MeshLatencyModel, WeightedAverageWithUniformMatrixEqualsAverage) {
  const topo::ExpressMesh design = topo::make_hfb(8);
  const MeshLatencyModel model(design, LatencyParams::zero_load());
  std::vector<double> rates(64 * 64, 1.0);
  for (int i = 0; i < 64; ++i) rates[static_cast<std::size_t>(i) * 64 + i] = 0.0;
  const LatencyBreakdown weighted = model.weighted_average(rates);
  const LatencyBreakdown uniform = model.average();
  EXPECT_NEAR(weighted.head, uniform.head, 1e-9);
  EXPECT_DOUBLE_EQ(weighted.serialization, uniform.serialization);
}

TEST(MeshLatencyModel, WeightedAverageSinglePair) {
  const MeshLatencyModel model(topo::make_mesh(4),
                               LatencyParams::zero_load());
  std::vector<double> rates(16 * 16, 0.0);
  rates[0 * 16 + 15] = 2.5;  // only corner-to-corner
  const LatencyBreakdown w = model.weighted_average(rates);
  EXPECT_DOUBLE_EQ(w.head, model.pair_head_latency(0, 15));
}

TEST(MeshLatencyModel, WeightedAverageValidation) {
  const MeshLatencyModel model(topo::make_mesh(4),
                               LatencyParams::zero_load());
  EXPECT_THROW(model.weighted_average(std::vector<double>(10, 1.0)),
               PreconditionError);
  EXPECT_THROW(model.weighted_average(std::vector<double>(256, 0.0)),
               PreconditionError);
  std::vector<double> negative(256, 1.0);
  negative[1] = -1.0;
  EXPECT_THROW(model.weighted_average(negative), PreconditionError);
}

/// What the one pass must reproduce bit for bit: the loop over
/// pair_head_latency() that every average used to run, one pair at a time.
struct PairReference {
  double head = 0.0;
  double worst = 0.0;
  double hops = 0.0;
};

PairReference per_pair_reference(const MeshLatencyModel& model,
                                 const std::vector<double>& rates) {
  const int nodes = model.routing().width() * model.routing().height();
  double head_total = 0.0;
  double weight_total = 0.0;
  double worst = 0.0;
  long hops = 0;
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      if (src == dst) continue;
      const double w = rates[static_cast<std::size_t>(src) * nodes + dst];
      const double head = model.pair_head_latency(src, dst);
      head_total += w * head;
      weight_total += w;
      worst = std::max(worst, head + model.serialization_cycles());
      hops += model.routing().hops(src, dst);
    }
  }
  return {head_total / weight_total, worst,
          static_cast<double>(hops) /
              (static_cast<double>(nodes) * (nodes - 1))};
}

/// The one pass over `stream`'s rows, over the dense `rates` and the
/// unweighted passes against the per-pair reference, with EXPECT_EQ on
/// doubles: equal bits, not nearly equal values.
void expect_one_pass_matches(const MeshLatencyModel& model,
                             const std::vector<double>& rates,
                             const RowSource& stream,
                             const std::string& what) {
  const PairReference reference = per_pair_reference(model, rates);
  const PairSums sums = model.sum_pairs(stream);
  const LatencyBreakdown streamed = model.weighted_average(sums);
  EXPECT_EQ(streamed.head, reference.head) << what;
  EXPECT_EQ(streamed.total(),
            reference.head + model.serialization_cycles())
      << what;
  EXPECT_EQ(model.weighted_average(rates).head, reference.head) << what;
  EXPECT_EQ(sums.worst, reference.worst) << what;
  EXPECT_EQ(model.worst_case(), reference.worst) << what;
  EXPECT_EQ(model.average_hops(), reference.hops) << what;
}

TEST(Latency, OnePassEqualsPerPairReference) {
  std::vector<std::string> workloads;
  for (const traffic::Pattern p :
       {traffic::Pattern::kUniformRandom, traffic::Pattern::kTranspose,
        traffic::Pattern::kBitReverse, traffic::Pattern::kBitComplement,
        traffic::Pattern::kShuffle, traffic::Pattern::kTornado,
        traffic::Pattern::kNeighbor, traffic::Pattern::kHotspot})
    workloads.push_back(traffic::to_string(p));
  for (const traffic::AppModel& model : traffic::parsec_models())
    workloads.push_back(model.name);

  Rng rng(29);
  for (const int n : {3, 4, 8, 16}) {
    // A heterogeneous design: every row and column its own placement.
    const int limit = n == 3 ? 2 : 4;
    std::vector<topo::RowTopology> rows;
    std::vector<topo::RowTopology> cols;
    for (int i = 0; i < n; ++i) {
      rows.push_back(test::random_valid_row(n, limit, rng));
      cols.push_back(test::random_valid_row(n, limit, rng));
    }
    const topo::ExpressMesh design(rows, cols, limit, 256 / limit);
    for (const double contention : {0.0, 0.5}) {
      LatencyParams params;
      params.contention_per_hop = contention;
      const MeshLatencyModel model(design, params);
      for (const std::string& workload : workloads) {
        if (traffic::workload_unfit(workload, n) != nullptr) continue;
        const traffic::DemandRows demand =
            traffic::workload_rows(workload, n, 0.02);
        std::vector<double> row(static_cast<std::size_t>(demand.node_count()));
        expect_one_pass_matches(
            model, demand.matrix().rates(),
            [&demand, &row](int src) {
              demand.fill(src, row);
              return row.data();
            },
            workload + " n=" + std::to_string(n) +
                " contention=" + std::to_string(contention));
      }
    }
  }

  // A rectangular mesh under a random matrix with zero entries.
  const topo::ExpressMesh rect =
      topo::make_rect_design(test::random_valid_row(8, 4, rng),
                             test::random_valid_row(4, 4, rng), 4);
  const std::size_t nodes = 32;
  std::vector<double> rates(nodes * nodes, 0.0);
  for (std::size_t src = 0; src < nodes; ++src)
    for (std::size_t dst = 0; dst < nodes; ++dst)
      if (src != dst && rng.uniform01() < 0.7)
        rates[src * nodes + dst] = rng.uniform01();
  for (const double contention : {0.0, 0.5}) {
    LatencyParams params;
    params.contention_per_hop = contention;
    const MeshLatencyModel model(rect, params);
    expect_one_pass_matches(
        model, rates,
        [&rates, nodes](int src) {
          return rates.data() + static_cast<std::size_t>(src) * nodes;
        },
        "rect 8x4 contention=" + std::to_string(contention));
  }
}

TEST(LatencyBreakdown, TotalIsSum) {
  const LatencyBreakdown b{10.0, 2.5};
  EXPECT_DOUBLE_EQ(b.total(), 12.5);
}

}  // namespace
}  // namespace xlp::latency
