// Tests for the fault-tolerance subsystem (src/fault + the simulator's
// mid-run injection): fault-set semantics, deadlock-safe rerouting over
// degraded subgraphs, analytic-vs-simulated degraded latency, both swap
// policies, and byte-level determinism of the Monte Carlo campaign.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "exp/fault_campaign.hpp"
#include "fault/model.hpp"
#include "fault/objective.hpp"
#include "fault/reroute.hpp"
#include "latency/model.hpp"
#include "latency/packet_mix.hpp"
#include "route/deadlock.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "traffic/patterns.hpp"
#include "util/check.hpp"

namespace xlp::fault {
namespace {

sim::SimConfig quiet_config() {
  sim::SimConfig config;
  config.warmup_cycles = 100;
  config.measure_cycles = 2000;
  config.drain_cycles = 4000;
  return config;
}

// --------------------------------------------------------------------------
// Fault model

TEST(FaultModel, KillsMatchesDirectionAndFlags) {
  FaultSet faults;
  faults.add(LinkFault{{Dim::kRow, 3, {1, 4}}});
  EXPECT_TRUE(faults.kills(Dim::kRow, 3, 1, 4));
  EXPECT_TRUE(faults.kills(Dim::kRow, 3, 4, 1));  // bidirectional default
  EXPECT_FALSE(faults.kills(Dim::kRow, 2, 1, 4)); // wrong row
  EXPECT_FALSE(faults.kills(Dim::kCol, 3, 1, 4)); // wrong dimension
  EXPECT_FALSE(faults.kills(Dim::kRow, 3, 1, 2)); // different link

  FaultSet oneway;
  oneway.add(LinkFault{{Dim::kCol, 0, {2, 5}}, /*forward=*/true,
                       /*backward=*/false});
  EXPECT_TRUE(oneway.kills(Dim::kCol, 0, 2, 5));
  EXPECT_FALSE(oneway.kills(Dim::kCol, 0, 5, 2));
}

TEST(FaultModel, PortFaultsAccumulateAndLinksRemove) {
  FaultSet faults;
  faults.add(PortFault{12, 2});
  faults.add(PortFault{12, 1});
  EXPECT_EQ(faults.extra_pipeline_cycles(12), 3);
  EXPECT_EQ(faults.extra_pipeline_cycles(11), 0);

  const LinkId id{Dim::kRow, 0, {0, 3}};
  faults.add(LinkFault{id});
  EXPECT_TRUE(faults.remove_link(id));
  EXPECT_FALSE(faults.remove_link(id));
  EXPECT_FALSE(faults.kills(Dim::kRow, 0, 0, 3));
}

TEST(FaultModel, RejectsMalformedFaults) {
  FaultSet faults;
  EXPECT_THROW(faults.add(LinkFault{{Dim::kRow, 0, {3, 1}}}),
               PreconditionError);
  EXPECT_THROW(faults.add(LinkFault{{Dim::kRow, 0, {1, 3}}, false, false}),
               PreconditionError);
  EXPECT_THROW(faults.add(PortFault{0, 0}), PreconditionError);
}

TEST(FaultModel, EnumerateLinksCoversTheMesh) {
  // 4x4 mesh: 4 rows x 3 local links + 4 cols x 3 = 24 distinct links,
  // none of them express.
  const auto mesh_links = enumerate_links(topo::make_mesh(4));
  EXPECT_EQ(mesh_links.size(), 24u);
  EXPECT_TRUE(enumerate_links(topo::make_mesh(4), true).empty());

  // HFB adds express links; duplicates (same endpoints in the same row)
  // must collapse to one entry.
  const auto hfb = topo::make_hfb(8);
  const auto express = enumerate_links(hfb, true);
  EXPECT_FALSE(express.empty());
  for (std::size_t i = 0; i < express.size(); ++i)
    for (std::size_t j = i + 1; j < express.size(); ++j)
      EXPECT_FALSE(express[i] == express[j]);
}

TEST(FaultModel, SampleKLinksDrawsDistinctExpressLinks) {
  const auto hfb = topo::make_hfb(8);
  Rng rng(7);
  const FaultSet faults = sample_k_links(hfb, 3, rng);
  EXPECT_EQ(faults.link_faults().size(), 3u);
  for (const LinkFault& f : faults.link_faults()) {
    EXPECT_TRUE(f.id.link.is_express());
    EXPECT_TRUE(f.forward && f.backward);
  }
  // Distinct links, drawn without replacement.
  const auto& lf = faults.link_faults();
  for (std::size_t i = 0; i < lf.size(); ++i)
    for (std::size_t j = i + 1; j < lf.size(); ++j)
      EXPECT_FALSE(lf[i].id == lf[j].id);

  // A plain mesh has no express links: the sampler falls back to local
  // links instead of returning nothing.
  Rng rng2(7);
  const FaultSet mesh_faults = sample_k_links(topo::make_mesh(4), 2, rng2);
  EXPECT_EQ(mesh_faults.link_faults().size(), 2u);
}

// --------------------------------------------------------------------------
// Rerouting

TEST(Reroute, IntactMeshMatchesBaselineRouting) {
  const auto design = topo::make_hfb(8);
  const route::MeshRouting baseline(design, route::HopWeights{});
  const RerouteResult rr = reroute(design, FaultSet{});
  EXPECT_TRUE(rr.fully_connected());
  EXPECT_TRUE(rr.deadlock_free());
  for (int s = 0; s < design.node_count(); ++s)
    for (int d = 0; d < design.node_count(); ++d) {
      if (s == d) continue;
      EXPECT_DOUBLE_EQ(rr.routing.head_cost(s, d), baseline.head_cost(s, d));
    }
}

TEST(Reroute, KilledExpressLinkForcesTheLocalDetour) {
  // A single express link 0-3: killing it leaves only the local chain, so
  // the 0->3 route must fall back to three local hops.
  const topo::RowTopology row(8, {{0, 3}});
  const auto design = topo::make_design(row, 2);
  FaultSet faults;
  faults.add(LinkFault{{Dim::kRow, 0, {0, 3}}});
  const RerouteResult rr = reroute(design, faults);
  EXPECT_TRUE(rr.fully_connected());  // local links survive
  EXPECT_TRUE(rr.deadlock_free());
  EXPECT_EQ(rr.routing.hops(0, 3), 3);
  const auto path = rr.routing.path(0, 3);
  EXPECT_EQ(path, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Reroute, KilledLocalLinkSeversPairsAndReportsThem) {
  // Mesh row 0, kill local link 0-1: node 0 can no longer move right, so
  // XY traffic from 0 to anything in columns 1.. is unreachable.
  const auto design = topo::make_mesh(4);
  FaultSet faults;
  faults.add(LinkFault{{Dim::kRow, 0, {0, 1}}});
  const RerouteResult rr = reroute(design, faults);
  EXPECT_FALSE(rr.fully_connected());
  EXPECT_TRUE(rr.deadlock_free());
  EXPECT_FALSE(rr.routing.reachable(0, 1, route::Orientation::kXYFirst));
  const bool listed_xy =
      std::find(rr.unreachable_xy.begin(), rr.unreachable_xy.end(),
                std::pair{0, 1}) != rr.unreachable_xy.end();
  EXPECT_TRUE(listed_xy);
  // Consistency: every pair is either reachable or listed, per orientation.
  for (int s = 0; s < design.node_count(); ++s)
    for (int d = 0; d < design.node_count(); ++d) {
      if (s == d) continue;
      const bool reach =
          rr.routing.reachable(s, d, route::Orientation::kXYFirst);
      const bool listed =
          std::find(rr.unreachable_xy.begin(), rr.unreachable_xy.end(),
                    std::pair{s, d}) != rr.unreachable_xy.end();
      EXPECT_NE(reach, listed) << s << "->" << d;
    }
}

TEST(Reroute, RandomPlacementsStayDeadlockFreeUnderRandomFaults) {
  // Property: any valid placement with any single-link fault reroutes to
  // tables whose channel dependency graphs are acyclic in both
  // orientations (checked independently of the flags reroute() computed).
  Rng rng(42);
  for (int iter = 0; iter < 15; ++iter) {
    const topo::RowTopology row = test::random_valid_row(8, 4, rng);
    const topo::ExpressMesh design = topo::make_design(row, 4);
    Rng fault_rng(1000 + static_cast<std::uint64_t>(iter));
    SampleOptions opts;
    opts.express_only = false;  // local links can die too
    const FaultSet faults = sample_k_links(design, 1, fault_rng, opts);
    const RerouteResult rr = reroute(design, faults);
    EXPECT_TRUE(rr.deadlock_free())
        << row.to_string() << " faults " << faults.to_string();
    const route::ChannelDependencyGraph cdg_xy(
        design, rr.routing, route::Orientation::kXYFirst);
    const route::ChannelDependencyGraph cdg_yx(
        design, rr.routing, route::Orientation::kYXFirst);
    EXPECT_FALSE(cdg_xy.has_cycle());
    EXPECT_FALSE(cdg_yx.has_cycle());
  }
}

TEST(Reroute, CycleWitnessIsConsistentWithHasCycle) {
  // Monotone DOR tables are acyclic by construction, so the witness is
  // empty exactly when has_cycle() is false; the cycle-reporting branch of
  // find_cycle() is unreachable through the public API (which is the
  // point — this pins the equivalence the fault layer relies on).
  const auto design = topo::make_hfb(8);
  const route::MeshRouting routing(design, route::HopWeights{});
  for (const auto orientation :
       {route::Orientation::kXYFirst, route::Orientation::kYXFirst}) {
    const route::ChannelDependencyGraph cdg(design, routing, orientation);
    EXPECT_EQ(cdg.has_cycle(), !cdg.find_cycle().empty());
    EXPECT_FALSE(cdg.has_cycle());
  }
  EXPECT_EQ(route::describe_channels({{12, 4}, {4, 5}}), "12->4 -> 4->5");
}

// --------------------------------------------------------------------------
// Analytic model vs simulator on the degraded network

TEST(DegradedZeroLoad, AnalyticCostMatchesSimulatedLatency) {
  // Inject the fault at cycle 0 (before any traffic), send one packet
  // through the otherwise idle degraded network, and check its latency
  // against the rerouted tables' head cost: head + 3 (the +1 router
  // convention) + serialization flits.
  Rng rng(5);
  for (int iter = 0; iter < 5; ++iter) {
    const topo::RowTopology row = test::random_valid_row(8, 4, rng);
    const topo::ExpressMesh design = topo::make_design(row, 4);
    Rng fault_rng(2000 + static_cast<std::uint64_t>(iter));
    const FaultSet faults = sample_k_links(design, 1, fault_rng);
    const RerouteResult rr = reroute(design, faults, route::HopWeights{});

    const sim::Network network(design, route::HopWeights{});
    const int bits = 512;
    const int flits =
        latency::PacketMix::flits_for(bits, design.flit_bits());

    for (const auto [src, dst] :
         {std::pair{0, 63}, std::pair{7, 56}, std::pair{3, 36}}) {
      if (!rr.routing.reachable(src, dst, route::Orientation::kXYFirst))
        continue;
      sim::SimConfig config = quiet_config();
      config.faults.events.push_back({0, faults, -1});
      sim::Simulator sim(network, config);
      sim.schedule_packet(src, dst, bits, config.warmup_cycles + 10);
      const sim::SimStats stats = sim.run();
      ASSERT_EQ(stats.packets_finished, 1)
          << row.to_string() << " faults " << faults.to_string();
      const long expected = static_cast<long>(rr.routing.head_cost(
                                src, dst, route::Orientation::kXYFirst)) +
                            3 + flits;
      EXPECT_EQ(sim.packet_latency(0), expected)
          << row.to_string() << " " << src << "->" << dst << " faults "
          << faults.to_string();
    }
  }
}

TEST(DegradedZeroLoad, PortFaultAddsItsExtraPipelineCycles) {
  // A degraded router adds its extra cycles once per traversal: path
  // 0 -> 1 -> 2 crosses router 1, so the packet arrives exactly
  // `extra_cycles` later than on the healthy mesh.
  const auto design = topo::make_mesh(4);
  const sim::Network network(design, route::HopWeights{});

  auto latency_with = [&](const FaultSet& faults) {
    sim::SimConfig config = quiet_config();
    if (!faults.empty()) config.faults.events.push_back({0, faults, -1});
    sim::Simulator sim(network, config);
    sim.schedule_packet(0, 2, 512, config.warmup_cycles + 10);
    const sim::SimStats stats = sim.run();
    EXPECT_EQ(stats.packets_finished, 1);
    return sim.packet_latency(0);
  };

  FaultSet faults;
  faults.add(PortFault{1, 5});
  EXPECT_EQ(latency_with(faults), latency_with(FaultSet{}) + 5);
}

// --------------------------------------------------------------------------
// Mid-run injection policies

sim::SimStats run_with_fault(sim::FaultPolicy policy, long recover_cycle) {
  const auto design = topo::make_hfb(8);
  const sim::Network network(design, route::HopWeights{});
  const traffic::DemandRows demand(traffic::Pattern::kUniformRandom, 8, 0.02);
  sim::SimConfig config = quiet_config();
  config.measure_cycles = 3000;
  config.faults.policy = policy;
  Rng rng(3);
  FaultSet faults = sample_k_links(design, 1, rng);
  config.faults.events.push_back({600, std::move(faults), recover_cycle});
  sim::Simulator sim(network, demand, config);
  return sim.run();
}

TEST(MidRunFaults, DropRetransmitReroutesAndDrains) {
  const sim::SimStats stats =
      run_with_fault(sim::FaultPolicy::kDropRetransmit, -1);
  EXPECT_EQ(stats.reroutes, 1);
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.packets_lost, 0);       // express loss never severs pairs
  EXPECT_EQ(stats.packets_unroutable, 0);
  EXPECT_GT(stats.packets_finished, 100);
  // Retransmissions only happen when the fault caught packets in flight;
  // dropped and retransmitted agree unless retries ran out (they cannot
  // here, losing a pair requires a severed route).
  EXPECT_EQ(stats.packets_dropped, stats.packets_retransmitted);
}

TEST(MidRunFaults, DrainThenSwapLosesNothing) {
  const sim::SimStats stats =
      run_with_fault(sim::FaultPolicy::kDrainThenSwap, -1);
  EXPECT_EQ(stats.reroutes, 1);
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.packets_dropped, 0);  // graceful: nothing purged
  EXPECT_EQ(stats.packets_lost, 0);
  EXPECT_GT(stats.packets_finished, 100);
}

TEST(MidRunFaults, DrainThenSwapWithRecoveryNeverUsesDeadChannels) {
  // Regression: the swap must wait for packets mid-injection too. A head
  // that claimed its NI VC before the drain holds VC claims along an
  // old-table path, so swapping at zero in-network flits but with the
  // tail still queued would later grant flits onto the dead channel
  // (tripping the simulator's dead-channel invariant).
  const sim::SimStats stats =
      run_with_fault(sim::FaultPolicy::kDrainThenSwap, 1500);
  EXPECT_EQ(stats.reroutes, 2);  // degrade + recover, both graceful
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.packets_dropped, 0);
  EXPECT_EQ(stats.packets_lost, 0);
}

TEST(MidRunFaults, RecoverySwapsBack) {
  const sim::SimStats stats =
      run_with_fault(sim::FaultPolicy::kDropRetransmit, 1500);
  EXPECT_EQ(stats.reroutes, 2);  // degrade + recover
  EXPECT_TRUE(stats.drained);
}

TEST(MidRunFaults, EmptyScheduleMatchesFaultFreeRun) {
  const auto design = topo::make_hfb(8);
  const sim::Network network(design, route::HopWeights{});
  const traffic::DemandRows demand(traffic::Pattern::kTranspose, 8, 0.02);
  sim::SimConfig plain = quiet_config();
  sim::SimConfig with_schedule = quiet_config();
  with_schedule.faults.policy = sim::FaultPolicy::kDrainThenSwap;
  with_schedule.faults.max_retries = 7;  // no events: must change nothing

  sim::Simulator a(network, demand, plain);
  sim::Simulator b(network, demand, with_schedule);
  const sim::SimStats sa = a.run();
  const sim::SimStats sb = b.run();
  EXPECT_EQ(sa.packets_offered, sb.packets_offered);
  EXPECT_EQ(sa.packets_finished, sb.packets_finished);
  EXPECT_DOUBLE_EQ(sa.avg_latency, sb.avg_latency);
  EXPECT_EQ(sa.reroutes, 0);
  EXPECT_EQ(sb.reroutes, 0);
}

// --------------------------------------------------------------------------
// Reliability-aware objective

TEST(ReliabilityObjective, WeightZeroIsThePlainObjective) {
  const core::RowObjective plain(8, route::HopWeights{});
  const core::RowObjective blended =
      make_reliability_objective(8, route::HopWeights{}, 0.0);
  Rng rng(11);
  for (int i = 0; i < 5; ++i) {
    const topo::RowTopology row = test::random_valid_row(8, 4, rng);
    EXPECT_DOUBLE_EQ(blended.evaluate(row), plain.evaluate(row));
  }
}

TEST(ReliabilityObjective, BlendsInTheDegradedCost) {
  const topo::RowTopology row(8, {{0, 4}, {4, 7}});
  const route::HopWeights weights{};
  const core::RowObjective plain(8, weights);
  const double healthy = plain.evaluate(row);
  const double degraded =
      degraded_row_cost(row, weights, DegradedMetric::kExpected);
  EXPECT_GT(degraded, healthy);  // losing an express link always hurts

  const core::RowObjective blended =
      make_reliability_objective(8, weights, 0.25);
  EXPECT_NEAR(blended.evaluate(row), 0.75 * healthy + 0.25 * degraded,
              1e-9);

  // Worst-case metric dominates the expectation.
  EXPECT_GE(degraded_row_cost(row, weights, DegradedMetric::kWorst),
            degraded);
  // No express links: nothing can fail, degraded == healthy.
  const topo::RowTopology bare(8);
  EXPECT_DOUBLE_EQ(degraded_row_cost(bare, weights, DegradedMetric::kWorst),
                   plain.evaluate(bare));
}

// --------------------------------------------------------------------------
// Campaign determinism

TEST(Campaign, SameSeedProducesByteIdenticalJson) {
  // Shrink the solver/simulator budgets so two full campaigns stay cheap.
  exp::FaultCampaignConfig config;
  config.n = 4;
  config.link_limit = 2;
  config.trials = 2;
  config.fault_cycle = 600;
  config.seed = 9;
  config.scale = 0.02;

  const exp::FaultCampaignResult once = exp::run_fault_campaign(config);
  const std::string first = once.to_json().dump();
  const std::string second =
      exp::run_fault_campaign(config).to_json().dump();

  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"designs\""), std::string::npos);
  EXPECT_EQ(once.designs.size(), 4u);
}

TEST(Campaign, BudgetComesFromTheConfigNotTheEnvironment) {
  // XLP_BENCH_SCALE sizes the bench suites only: the same config must give
  // the same campaign with and without it (restored afterwards).
  exp::FaultCampaignConfig config;
  config.n = 4;
  config.link_limit = 2;
  config.trials = 1;
  config.fault_cycle = 500;
  const char* old_scale = std::getenv("XLP_BENCH_SCALE");
  const std::string saved = old_scale != nullptr ? old_scale : "";
  unsetenv("XLP_BENCH_SCALE");
  const std::string plain = exp::run_fault_campaign(config).to_json().dump();
  setenv("XLP_BENCH_SCALE", "0.02", 1);
  const std::string scaled = exp::run_fault_campaign(config).to_json().dump();
  if (old_scale != nullptr) setenv("XLP_BENCH_SCALE", saved.c_str(), 1);
  else unsetenv("XLP_BENCH_SCALE");
  EXPECT_EQ(plain, scaled);
}

}  // namespace
}  // namespace xlp::fault
