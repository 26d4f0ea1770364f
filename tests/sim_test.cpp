#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "latency/model.hpp"
#include "latency/packet_mix.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/throughput.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "traffic/app_models.hpp"
#include "traffic/trace.hpp"
#include "util/check.hpp"

namespace xlp::sim {
namespace {

SimConfig quiet_config() {
  SimConfig config;
  config.warmup_cycles = 100;
  config.measure_cycles = 2000;
  config.drain_cycles = 4000;
  return config;
}

/// Runs exactly one packet through an otherwise idle network and returns
/// its creation-to-tail-ejection latency.
long one_packet_latency(const topo::ExpressMesh& design, int src, int dst,
                        int bits) {
  const Network network(design, route::HopWeights{});
  SimConfig config = quiet_config();
  Simulator sim(network, config);
  sim.schedule_packet(src, dst, bits, config.warmup_cycles + 10);
  const SimStats stats = sim.run();
  EXPECT_EQ(stats.packets_offered, 1);
  EXPECT_EQ(stats.packets_finished, 1);
  return sim.packet_latency(0);
}

// --------------------------------------------------------------------------
// Network structure

TEST(Network, MeshPortLayout) {
  const Network net(topo::make_mesh(4), route::HopWeights{});
  EXPECT_EQ(net.node_count(), 16);
  EXPECT_EQ(net.flit_bits(), 256);
  // Corner: NI + 2 neighbors; center: NI + 4.
  EXPECT_EQ(net.port_count(0), 3);
  EXPECT_EQ(net.port_count(5), 5);
  // 24 bidirectional links -> 48 directed channels.
  EXPECT_EQ(net.channels().size(), 48u);
}

TEST(Network, PortZeroIsTheNi) {
  const Network net(topo::make_mesh(4), route::HopWeights{});
  EXPECT_EQ(net.port(3, 0).peer_router, -1);
  EXPECT_EQ(net.port(3, 0).out_channel, -1);
}

TEST(Network, ChannelsAreSymmetricallyWired) {
  const Network net(topo::make_hfb(8), route::HopWeights{});
  for (const auto& ch : net.channels()) {
    const auto& dst_port = net.port(ch.dst_router, ch.dst_port);
    EXPECT_EQ(dst_port.peer_router, ch.src_router);
    EXPECT_EQ(dst_port.in_channel,
              net.port(ch.src_router, ch.src_port).out_channel);
    EXPECT_EQ(ch.length, dst_port.length);
  }
}

TEST(Network, ExpressLinksGetTheirManhattanLength) {
  const topo::RowTopology row(8, {{1, 3}, {3, 7}});
  const Network net(topo::make_design(row, 4), route::HopWeights{});
  bool found = false;
  for (const auto& ch : net.channels())
    if (ch.src_router == 3 && ch.dst_router == 7) {
      EXPECT_EQ(ch.length, 4);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(Network, DuplicateParallelLinksCollapse) {
  const topo::RowTopology row(6, {{1, 4}, {1, 4}});
  const Network net(topo::ExpressMesh(row, 3, 64), route::HopWeights{});
  int count = 0;
  for (const auto& ch : net.channels())
    if (ch.src_router == 1 && ch.dst_router == 4) ++count;
  EXPECT_EQ(count, 1);
}

// --------------------------------------------------------------------------
// Zero-load latency: the simulator must reproduce the analytic model
// exactly, packet by packet.

using PairCase = std::tuple<int, int, int>;  // src, dst, bits

class ZeroLoadMesh8 : public ::testing::TestWithParam<PairCase> {};

TEST_P(ZeroLoadMesh8, MatchesAnalyticModel) {
  const auto [src, dst, bits] = GetParam();
  const topo::ExpressMesh design = topo::make_mesh(8);
  const latency::MeshLatencyModel model(design,
                                        latency::LatencyParams::zero_load());
  const int hops = model.routing().hops(src, dst);
  const int sx = src % 8, sy = src / 8, dx = dst % 8, dy = dst / 8;
  const int dist = std::abs(sx - dx) + std::abs(sy - dy);
  const int flits = latency::PacketMix::flits_for(bits, 256);
  const long expected = (hops + 1) * 3 + dist + flits;
  EXPECT_EQ(one_packet_latency(design, src, dst, bits), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ZeroLoadMesh8,
    ::testing::Values(PairCase{0, 1, 128}, PairCase{0, 1, 512},
                      PairCase{0, 7, 512}, PairCase{0, 63, 512},
                      PairCase{63, 0, 128}, PairCase{9, 54, 512},
                      PairCase{7, 56, 128}, PairCase{20, 22, 512},
                      // Longer than any packet of the default mix: 4 and
                      // 16 flits (the VC holds 8).
                      PairCase{0, 63, 1024}, PairCase{9, 54, 4096}));

class ZeroLoadDesigns
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ZeroLoadDesigns, ExpressDesignsMatchAnalyticModel) {
  const auto [limit, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const topo::RowTopology row = test::random_valid_row(8, limit, rng);
  const topo::ExpressMesh design = topo::make_design(row, limit);
  const latency::MeshLatencyModel model(design,
                                        latency::LatencyParams::zero_load());
  for (const auto& [src, dst] :
       {std::pair{0, 63}, std::pair{63, 0}, std::pair{5, 58},
        std::pair{16, 23}, std::pair{1, 0}}) {
    for (const int bits : {128, 512}) {
      const int flits = latency::PacketMix::flits_for(bits,
                                                      design.flit_bits());
      const long expected =
          static_cast<long>(model.pair_head_latency(src, dst)) + flits;
      EXPECT_EQ(one_packet_latency(design, src, dst, bits), expected)
          << row.to_string() << " " << src << "->" << dst << " " << bits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LimitsAndSeeds, ZeroLoadDesigns,
    ::testing::Combine(::testing::Values(2, 4, 8), ::testing::Values(1, 2)));

TEST(ZeroLoad, HfbUsesItsExpressLinks) {
  const topo::ExpressMesh hfb = topo::make_hfb(8);
  // (0,0) -> (3,0): one express hop of length 3 = 2 routers * 3 + 3 + flits.
  EXPECT_EQ(one_packet_latency(hfb, 0, 3, 512),
            2 * 3 + 3 + latency::PacketMix::flits_for(512, 64));
}

TEST(ZeroLoad, SerializationScalesWithFlitWidth) {
  const topo::ExpressMesh mesh = topo::make_mesh(8);
  const long short_pkt = one_packet_latency(mesh, 0, 1, 128);
  const long long_pkt = one_packet_latency(mesh, 0, 1, 512);
  EXPECT_EQ(long_pkt - short_pkt, 1);  // 2 flits vs 1 flit at 256 bits

  const topo::RowTopology row(8, {{0, 7}});
  const topo::ExpressMesh narrow = topo::make_design(row, 2);  // 128-bit
  const long narrow_long = one_packet_latency(narrow, 0, 1, 512);
  const long narrow_short = one_packet_latency(narrow, 0, 1, 128);
  EXPECT_EQ(narrow_long - narrow_short, 3);  // 4 flits vs 1
}

// --------------------------------------------------------------------------
// Load behaviour

TEST(Load, LowLoadDrainsAndMatchesOffered) {
  const Network net(topo::make_mesh(8), route::HopWeights{});
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8, 0.01);
  SimConfig config = quiet_config();
  config.measure_cycles = 5000;
  Simulator sim(net, demand, config);
  const SimStats stats = sim.run();
  EXPECT_TRUE(stats.drained);
  EXPECT_GT(stats.packets_finished, 100);
  EXPECT_NEAR(stats.offered_packets_per_node_cycle, 0.01, 0.002);
  EXPECT_NEAR(stats.throughput_packets_per_node_cycle, 0.01, 0.002);
}

TEST(Load, LowLoadLatencyNearZeroLoadModel) {
  const topo::ExpressMesh design = topo::make_mesh(8);
  const Network net(design, route::HopWeights{});
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8, 0.005);
  SimConfig config = quiet_config();
  config.measure_cycles = 8000;
  Simulator sim(net, demand, config);
  const SimStats stats = sim.run();
  const latency::MeshLatencyModel model(design,
                                        latency::LatencyParams::zero_load());
  const double analytic = model.average().total();
  EXPECT_NEAR(stats.avg_latency, analytic, analytic * 0.10);
  EXPECT_LT(stats.avg_contention_per_hop, 1.0);  // Section 4.2's observation
}

TEST(Load, ContentionGrowsWithLoad) {
  const Network net(topo::make_mesh(8), route::HopWeights{});
  const traffic::DemandRows shape(traffic::Pattern::kUniformRandom, 8, 1.0);
  SimConfig config = quiet_config();
  const SimStats low = simulate_at_load(net, shape, 0.01, config);
  const SimStats high = simulate_at_load(net, shape, 0.15, config);
  EXPECT_GT(high.avg_contention_per_hop, low.avg_contention_per_hop);
  EXPECT_GT(high.avg_latency, low.avg_latency);
}

TEST(Load, RescalingAnAllZeroShapeIsRejected) {
  const Network net(topo::make_mesh(4), route::HopWeights{});
  EXPECT_THROW((void)simulate_at_load(net, traffic::Flows(4, 4, {}), 0.1,
                                      quiet_config()),
               PreconditionError);
}

TEST(Load, HopsMatchRoutingTables) {
  const topo::ExpressMesh design = topo::make_hfb(8);
  const Network net(design, route::HopWeights{});
  const traffic::DemandRows demand(traffic::Pattern::kTranspose, 8, 0.01);
  SimConfig config = quiet_config();
  Simulator sim(net, demand, config);
  const SimStats stats = sim.run();
  const latency::MeshLatencyModel model(design,
                                        latency::LatencyParams::zero_load());
  // Transpose's average hops under the tables, weighted by the pattern.
  const auto breakdown = model.weighted_average(demand);
  (void)breakdown;
  double expect_hops = 0.0;
  const traffic::Flows flows = test::flows_of(demand);
  for (const traffic::Flow& f : flows.entries())
    expect_hops += model.routing().hops(f.src, f.dst);
  expect_hops /= static_cast<double>(flows.entries().size());
  EXPECT_NEAR(stats.avg_hops, expect_hops, 0.05);
}

TEST(Load, ActivityCountersAreConsistent) {
  const Network net(topo::make_mesh(8), route::HopWeights{});
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8, 0.02);
  SimConfig config = quiet_config();
  Simulator sim(net, demand, config);
  const SimStats stats = sim.run();
  EXPECT_GT(stats.activity.buffer_writes, 0);
  EXPECT_GT(stats.activity.crossbar_traversals, 0);
  // Steady state: reads track writes within the window edges.
  const double ratio = static_cast<double>(stats.activity.buffer_reads) /
                       stats.activity.buffer_writes;
  EXPECT_NEAR(ratio, 1.0, 0.05);
  // Mesh: every traversal is over a unit link or an ejection; link units
  // can never exceed crossbar traversals on unit-length links.
  EXPECT_LE(stats.activity.link_flit_units,
            stats.activity.crossbar_traversals);
  EXPECT_EQ(stats.activity.flit_bits, 256);
  EXPECT_EQ(stats.activity.measured_cycles, config.measure_cycles);
}

TEST(Load, SchedulePacketValidation) {
  const Network net(topo::make_mesh(4), route::HopWeights{});
  Simulator sim(net, quiet_config());
  EXPECT_THROW(sim.schedule_packet(0, 0, 128, 10), PreconditionError);
  EXPECT_THROW(sim.schedule_packet(-1, 3, 128, 10), PreconditionError);
  EXPECT_THROW(sim.packet_latency(0), PreconditionError);
}

TEST(Load, RejectsOverUnityInjection) {
  const Network net(topo::make_mesh(4), route::HopWeights{});
  const traffic::Flows demand(4, 4, {{0, 1, 1.5}});
  EXPECT_THROW(Simulator(net, demand, quiet_config()), PreconditionError);
  // A sampled trace draws from the same sampler, so it refuses too.
  Rng rng(1);
  EXPECT_THROW((void)traffic::Trace::sample(demand, 10, rng),
               PreconditionError);
}

// --------------------------------------------------------------------------
// Saturation sweep

TEST(Saturation, MeshSustainsMoreUniformTrafficThanHfb) {
  // Section 5.4: the Mesh has the highest throughput; the HFB loses more
  // than half of it to the inter-quadrant bottleneck.
  SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 1500;
  config.drain_cycles = 1500;
  const traffic::DemandRows shape(traffic::Pattern::kUniformRandom, 8, 1.0);

  const Network mesh(topo::make_mesh(8), route::HopWeights{});
  const Network hfb(topo::make_hfb(8), route::HopWeights{});
  const auto mesh_sat = find_saturation(mesh, shape, config, 0.05, 0.5);
  const auto hfb_sat = find_saturation(hfb, shape, config, 0.05, 0.5);
  EXPECT_GT(mesh_sat.saturation_throughput,
            1.5 * hfb_sat.saturation_throughput);
}

TEST(Saturation, CurveIsMonotoneUntilSaturation) {
  SimConfig config;
  config.warmup_cycles = 200;
  config.measure_cycles = 1000;
  config.drain_cycles = 1000;
  const traffic::DemandRows shape(traffic::Pattern::kUniformRandom, 8, 1.0);
  const Network mesh(topo::make_mesh(8), route::HopWeights{});
  const auto result = find_saturation(mesh, shape, config, 0.05, 0.4);
  ASSERT_GE(result.curve.size(), 2u);
  // Accepted throughput grows with offered load below saturation.
  for (std::size_t i = 1; i < result.curve.size(); ++i)
    if (!result.curve[i].saturated)
      EXPECT_GT(result.curve[i].accepted, result.curve[i - 1].accepted * 0.9);
}

// --------------------------------------------------------------------------
// Telemetry events

/// Keeps the last `sim.channel_utilization` event in memory.
class HeatmapCaptureSink final : public obs::TraceSink {
 public:
  void emit(const std::string& event, obs::Json fields) override {
    if (event == "sim.channel_utilization") heatmap = std::move(fields);
  }
  std::optional<obs::Json> heatmap;
};

TEST(Telemetry, ChannelUtilizationHeatmapMatchesStats) {
  const Network net(topo::make_mesh(4), route::HopWeights{});
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 4, 0.05);
  SimConfig config = quiet_config();
  HeatmapCaptureSink sink;
  config.trace = &sink;
  Simulator sim(net, demand, config);
  const SimStats stats = sim.run();

  ASSERT_TRUE(sink.heatmap.has_value());
  const obs::Json& event = *sink.heatmap;
  EXPECT_EQ(event.find("width")->as_long(), 4);
  EXPECT_EQ(event.find("height")->as_long(), 4);
  EXPECT_EQ(event.find("measured_cycles")->as_long(),
            stats.activity.measured_cycles);

  // Exactly one entry per directed channel, in channel order, each with a
  // utilization in [0,1] that is the stats flit counter over the measured
  // window — the report heatmap renders straight from this contract.
  const obs::Json* channels = event.find("channels");
  ASSERT_NE(channels, nullptr);
  ASSERT_TRUE(channels->is_array());
  ASSERT_EQ(channels->size(), net.channels().size());
  ASSERT_EQ(stats.channel_flits.size(), net.channels().size());
  const double cycles =
      static_cast<double>(stats.activity.measured_cycles);
  ASSERT_GT(cycles, 0.0);
  bool any_used = false;
  for (std::size_t c = 0; c < channels->size(); ++c) {
    const obs::Json& entry = channels->at(c);
    EXPECT_EQ(entry.find("src")->as_long(), net.channels()[c].src_router);
    EXPECT_EQ(entry.find("dst")->as_long(), net.channels()[c].dst_router);
    EXPECT_EQ(entry.find("flits")->as_long(), stats.channel_flits[c]);
    const double utilization = entry.find("utilization")->as_number();
    EXPECT_GE(utilization, 0.0);
    EXPECT_LE(utilization, 1.0);
    EXPECT_DOUBLE_EQ(
        utilization,
        static_cast<double>(stats.channel_flits[c]) / cycles);
    any_used = any_used || utilization > 0.0;
  }
  EXPECT_TRUE(any_used);
}

}  // namespace
}  // namespace xlp::sim
