#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "latency/model.hpp"
#include "latency/packet_mix.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "traffic/app_models.hpp"
#include "traffic/demand.hpp"
#include "traffic/flows.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xlp::latency {
namespace {

TEST(PacketMix, PaperDefaultRatio) {
  const auto& classes = PacketMix::kClasses;
  // 1:4 long(512) to short(128).
  EXPECT_EQ(classes[0].bits, 128);
  EXPECT_DOUBLE_EQ(classes[0].fraction, 0.8);
  EXPECT_EQ(classes[1].bits, 512);
  EXPECT_DOUBLE_EQ(classes[1].fraction, 0.2);
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
  // Figure 1's example: 256-bit flits -> 512-bit packet takes 2 flits.
  EXPECT_DOUBLE_EQ(PacketMix::serialization_cycles(256),
                   0.8 * 1 + 0.2 * 2);  // 1.2
  EXPECT_DOUBLE_EQ(PacketMix::serialization_cycles(128),
                   0.8 * 1 + 0.2 * 4);  // 1.6
  EXPECT_DOUBLE_EQ(PacketMix::serialization_cycles(64),
                   0.8 * 2 + 0.2 * 8);  // 3.2
  EXPECT_DOUBLE_EQ(PacketMix::serialization_cycles(16),
                   0.8 * 8 + 0.2 * 32);  // 12.8
  EXPECT_DOUBLE_EQ(PacketMix::serialization_cycles(512), 1.0);
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
  std::vector<traffic::Flow> flows;
  for (int src = 0; src < 64; ++src)
    for (int dst = 0; dst < 64; ++dst)
      if (src != dst) flows.push_back({src, dst, 1.0});
  const traffic::Flows demand(8, 8, std::move(flows));
  const LatencyBreakdown weighted = model.weighted_average(demand);
  const LatencyBreakdown uniform = model.average();
  // Unit rates are the pair counts average() folds: the same exact sums.
  EXPECT_EQ(weighted.head, uniform.head);
  EXPECT_DOUBLE_EQ(weighted.serialization, uniform.serialization);
}

TEST(MeshLatencyModel, WeightedAverageSinglePair) {
  const MeshLatencyModel model(topo::make_mesh(4),
                               LatencyParams::zero_load());
  const traffic::Flows demand(4, 4, {{0, 15, 2.5}});  // corner to corner
  const LatencyBreakdown w = model.weighted_average(demand);
  EXPECT_DOUBLE_EQ(w.head, model.pair_head_latency(0, 15));
}

/// A demand whose row blocks carry one negative entry.
class NegativeDemand final : public LineDemand {
 public:
  [[nodiscard]] int width() const override { return 4; }
  [[nodiscard]] int height() const override { return 4; }
  void row_block(int, std::span<double> block) const override {
    std::fill(block.begin(), block.end(), 1.0);
    block[1] = -1.0;
  }
  void col_block(int, std::span<double> block) const override {
    std::fill(block.begin(), block.end(), 1.0);
  }
};

TEST(MeshLatencyModel, WeightedAverageValidation) {
  const MeshLatencyModel model(topo::make_mesh(4),
                               LatencyParams::zero_load());
  EXPECT_THROW((void)model.weighted_average(traffic::Flows(3, 3, {})),
               PreconditionError);
  EXPECT_THROW((void)model.weighted_average(traffic::Flows(4, 2, {})),
               PreconditionError);
  EXPECT_THROW((void)model.weighted_average(traffic::Flows(4, 4, {})),
               PreconditionError);
  EXPECT_THROW((void)model.weighted_average(NegativeDemand()),
               PreconditionError);
}

/// The oracle the fold must agree with: the loop over pair_head_latency()
/// every average used to run, one pair at a time. Its weighted sums are
/// long double: in double, UR's 65280 pairs at n = 16 alone drift 1e-12
/// relative from the exact quotient, which is the tolerance below.
struct PairReference {
  double head = 0.0;          ///< weighted by the demand's rates
  double uniform_head = 0.0;  ///< weight 1 on every pair
  double worst = 0.0;
  double hops = 0.0;
};

PairReference per_pair_reference(const MeshLatencyModel& model,
                                 const test::DenseDemand& demand) {
  const int nodes = model.routing().width() * model.routing().height();
  long double head_total = 0.0;
  long double weight_total = 0.0;
  double uniform_total = 0.0;
  double worst = 0.0;
  long hops = 0;
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      if (src == dst) continue;
      const double w = demand.rate(src, dst);
      const double head = model.pair_head_latency(src, dst);
      head_total += static_cast<long double>(w) * head;
      weight_total += w;
      uniform_total += head;
      worst = std::max(worst, head + model.serialization_cycles());
      hops += model.routing().hops(src, dst);
    }
  }
  const double pairs = static_cast<double>(nodes) * (nodes - 1);
  return {static_cast<double>(head_total / weight_total),
          uniform_total / pairs, worst,
          static_cast<double>(hops) / pairs};
}

/// The fold of `demand` and of its `dense` reference against the per-pair
/// reference over `dense`: weighted heads to 1e-12 relative, and the
/// uniform average, the worst case and the hop average with EXPECT_EQ on
/// doubles (equal bits: their sums are exact).
void expect_fold_matches(const MeshLatencyModel& model,
                         const LineDemand& demand,
                         const test::DenseDemand& dense,
                         const std::string& what) {
  const PairReference reference = per_pair_reference(model, dense);
  const double tolerance = 1e-12 * reference.head;
  const LatencyBreakdown folded = model.weighted_average(demand);
  EXPECT_NEAR(folded.head, reference.head, tolerance) << what;
  EXPECT_EQ(folded.serialization, model.serialization_cycles()) << what;
  EXPECT_NEAR(model.weighted_average(dense).head, reference.head, tolerance)
      << what;
  EXPECT_EQ(model.average().head, reference.uniform_head) << what;
  EXPECT_EQ(model.worst_case(), reference.worst) << what;
  EXPECT_EQ(model.average_hops(), reference.hops) << what;
}

/// Every line block of `demand` against the same block of its dense
/// `reference`, up to the one scale the blocks may drop (UR's are pair
/// counts), to 1e-12 of the block's largest entry.
void expect_blocks_match(const LineDemand& demand,
                         const test::DenseDemand& reference,
                         const std::string& what) {
  const int n = demand.width();
  std::vector<double> ours(static_cast<std::size_t>(n) * n);
  std::vector<double> dense(ours.size());
  double our_total = 0.0;
  double dense_total = 0.0;
  for (int y = 0; y < n; ++y) {
    demand.row_block(y, ours);
    reference.row_block(y, dense);
    for (std::size_t i = 0; i < ours.size(); ++i) {
      our_total += ours[i];
      dense_total += dense[i];
    }
  }
  const double scale = dense_total / our_total;
  for (const bool rows : {true, false}) {
    for (int line = 0; line < n; ++line) {
      if (rows) {
        demand.row_block(line, ours);
        reference.row_block(line, dense);
      } else {
        demand.col_block(line, ours);
        reference.col_block(line, dense);
      }
      const double peak = *std::max_element(dense.begin(), dense.end());
      for (std::size_t i = 0; i < ours.size(); ++i)
        ASSERT_NEAR(ours[i] * scale, dense[i], 1e-12 * peak)
            << what << (rows ? " row " : " column ") << line << " entry "
            << i;
    }
  }
}

/// A heterogeneous width x height design: every row and column its own
/// random placement.
topo::ExpressMesh random_heterogeneous(int width, int height, int limit,
                                       Rng& rng) {
  std::vector<topo::RowTopology> rows;
  std::vector<topo::RowTopology> cols;
  for (int y = 0; y < height; ++y)
    rows.push_back(test::random_valid_row(width, limit, rng));
  for (int x = 0; x < width; ++x)
    cols.push_back(test::random_valid_row(height, limit, rng));
  return topo::ExpressMesh(rows, cols, limit, 256 / limit);
}

/// Random rates on about 70% of the pairs.
traffic::Flows random_flows(int width, int height, Rng& rng) {
  const int nodes = width * height;
  std::vector<traffic::Flow> flows;
  for (int src = 0; src < nodes; ++src)
    for (int dst = 0; dst < nodes; ++dst)
      if (src != dst && rng.uniform01() < 0.7)
        flows.push_back({src, dst, rng.uniform01()});
  return traffic::Flows(width, height, std::move(flows));
}

std::string contention_tag(double contention) {
  return contention > 0.0 ? " contention=0.5" : " contention=0";
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
  // Every workload's closed-form blocks on heterogeneous square designs.
  for (const int n : {3, 4, 8, 16}) {
    const topo::ExpressMesh design =
        random_heterogeneous(n, n, n == 3 ? 2 : 4, rng);
    for (const std::string& workload : workloads) {
      if (traffic::workload_unfit(workload, n) != nullptr) continue;
      const traffic::DemandRows demand =
          traffic::workload_rows(workload, n, 0.02);
      const test::DenseDemand dense(demand);
      const std::string what = workload + " n=" + std::to_string(n);
      expect_blocks_match(demand, dense, what);
      for (const double contention : {0.0, 0.5}) {
        LatencyParams params;
        params.contention_per_hop = contention;
        const MeshLatencyModel model(design, params);
        expect_fold_matches(model, demand, dense,
                            what + contention_tag(contention));
        // UR's blocks are the pair counts average() folds.
        if (workload == "uniform_random")
          EXPECT_EQ(model.weighted_average(demand).head,
                    model.average().head)
              << what;
      }
    }
  }

  // Random flow lists, on heterogeneous square designs and an 8x4
  // rectangular one.
  for (const auto& [width, height] :
       {std::pair{4, 4}, std::pair{6, 6}, std::pair{8, 8}, std::pair{8, 4}}) {
    const topo::ExpressMesh design =
        random_heterogeneous(width, height, 4, rng);
    const traffic::Flows flows = random_flows(width, height, rng);
    const test::DenseDemand dense(flows);
    for (const double contention : {0.0, 0.5}) {
      LatencyParams params;
      params.contention_per_hop = contention;
      const MeshLatencyModel model(design, params);
      expect_fold_matches(model, flows, dense,
                          "random " + std::to_string(width) + "x" +
                              std::to_string(height) +
                              contention_tag(contention));
    }
  }
}

/// `row` mirrored: link (i, j) becomes (n-1-j, n-1-i).
topo::RowTopology reflect(const topo::RowTopology& row) {
  const int n = row.size();
  std::vector<topo::RowLink> links;
  for (const topo::RowLink& link : row.express_links())
    links.push_back({n - 1 - link.hi, n - 1 - link.lo});
  return topo::RowTopology(n, links);
}

TEST(Latency, ReflectionInBothAxesKeepsTheWeightedHead) {
  // Node (x, y) becomes (n-1-x, n-1-y): row y's placement moves to row
  // n-1-y mirrored, column x's to column n-1-x mirrored, and node id i to
  // N-1-i. A pair keeps its row segment in its source's row and its column
  // segment in its destination's column, so XY routing sees every segment
  // mirrored and the weighted head cannot change: the fold's 2D->1D
  // reduction, checked from outside the code.
  Rng rng(31);
  for (const int n : {4, 7, 8}) {
    const topo::ExpressMesh design = random_heterogeneous(n, n, 4, rng);
    std::vector<topo::RowTopology> rows;
    std::vector<topo::RowTopology> cols;
    for (int i = 0; i < n; ++i) {
      rows.push_back(reflect(design.row(n - 1 - i)));
      cols.push_back(reflect(design.col(n - 1 - i)));
    }
    const topo::ExpressMesh mirrored(rows, cols, design.link_limit(),
                                     design.flit_bits());
    const traffic::Flows demand = random_flows(n, n, rng);
    const int last = n * n - 1;
    std::vector<traffic::Flow> mirrored_flows;
    for (const traffic::Flow& f : demand.entries())
      mirrored_flows.push_back({last - f.src, last - f.dst, f.rate});
    const traffic::Flows reflected(n, n, std::move(mirrored_flows));
    for (const double contention : {0.0, 0.5}) {
      LatencyParams params;
      params.contention_per_hop = contention;
      const MeshLatencyModel model(design, params);
      const MeshLatencyModel mirror(mirrored, params);
      const std::string what =
          "n=" + std::to_string(n) + contention_tag(contention);
      EXPECT_EQ(mirror.average().head, model.average().head) << what;
      const traffic::DemandRows uniform(traffic::Pattern::kUniformRandom, n,
                                        0.02);
      EXPECT_EQ(mirror.weighted_average(uniform).head,
                model.weighted_average(uniform).head)
          << what;
      EXPECT_EQ(mirror.worst_case(), model.worst_case()) << what;
      const double head = model.weighted_average(demand).head;
      EXPECT_NEAR(mirror.weighted_average(reflected).head, head,
                  1e-12 * head)
          << what;
    }
  }
}

TEST(LatencyBreakdown, TotalIsSum) {
  const LatencyBreakdown b{10.0, 2.5};
  EXPECT_DOUBLE_EQ(b.total(), 12.5);
}

}  // namespace
}  // namespace xlp::latency
