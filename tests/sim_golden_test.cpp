// Golden-output contract for the cycle-level simulator: for a fixed set of
// configurations — mesh and HFB, both arbiters, every routing mode, the
// virtual-express bypass, both fault policies (with recovery and with
// retransmissions), a trace-driven run, a rectangular mesh and one
// saturated undrained point — the run's `stats_to_json`, its xlp-series/1
// document and its trace events must match the checked-in files under
// tests/data/sim_golden/ byte for byte. Any change to the simulator's
// per-cycle machinery that alters a single grant shows up here.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/model.hpp"
#include "obs/json.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/stats_json.hpp"
#include "test_util.hpp"
#include "topo/builders.hpp"
#include "topo/row_topology.hpp"
#include "traffic/flows.hpp"
#include "traffic/patterns.hpp"

namespace xlp::sim {
namespace {

/// JSONL sink without the wall-clock `ts` field, so the event stream is a
/// pure function of the simulation.
class GoldenTraceSink final : public obs::TraceSink {
 public:
  void emit(const std::string& event, obs::Json fields) override {
    obs::Json record = obs::Json::object();
    record.set("event", event);
    for (auto& [key, value] : fields.members()) record.set(key, value);
    out_ += record.dump();
    out_ += '\n';
  }
  [[nodiscard]] const std::string& text() const noexcept { return out_; }

 private:
  std::string out_;
};

struct GoldenCase {
  std::string name;
  std::function<topo::ExpressMesh()> design;
  std::function<traffic::Flows()> demand;
  std::function<void(SimConfig&)> configure;
  /// Trace-driven packets (src, dst, bits, create cycle), optional.
  std::vector<std::tuple<int, int, int, long>> scheduled;
};

// gtest prints parameters on failure; the name says it all.
void PrintTo(const GoldenCase& gc, std::ostream* os) { *os << gc.name; }

traffic::Flows pattern(traffic::Pattern p, double load) {
  return test::flows_of(traffic::DemandRows(p, 8, load));
}

SimConfig base_config() {
  SimConfig config;
  config.warmup_cycles = 300;
  config.measure_cycles = 2500;
  config.drain_cycles = 5000;
  config.seed = 11;
  return config;
}

fault::FaultSet express_fault() {
  fault::FaultSet faults;
  faults.add(fault::LinkFault{{fault::Dim::kRow, 2, {0, 3}}});
  faults.add(fault::LinkFault{{fault::Dim::kCol, 5, {3, 7}}});
  return faults;
}

std::vector<GoldenCase> golden_cases() {
  using traffic::Pattern;
  const auto mesh = [] { return topo::make_mesh(8); };
  const auto hfb = [] { return topo::make_hfb(8); };
  const auto ur = [](double load) {
    return [load] { return pattern(Pattern::kUniformRandom, load); };
  };
  const auto with = [](Arbiter arb, RoutingMode mode) {
    return [arb, mode](SimConfig& c) {
      c.arbiter = arb;
      c.routing = mode;
    };
  };
  std::vector<GoldenCase> cases;
  cases.push_back({"mesh8_ur_rr_xy", mesh, ur(0.04),
                   with(Arbiter::kRoundRobin, RoutingMode::kXY), {}});
  cases.push_back({"hfb8_ur_rr_xy", hfb, ur(0.04),
                   with(Arbiter::kRoundRobin, RoutingMode::kXY), {}});
  cases.push_back({"mesh8_ur_oldest_xy", mesh, ur(0.05),
                   with(Arbiter::kOldestFirst, RoutingMode::kXY), {}});
  cases.push_back({"hfb8_ur_oldest_yx", hfb, ur(0.05),
                   with(Arbiter::kOldestFirst, RoutingMode::kYX), {}});
  cases.push_back({"hfb8_transpose_rr_yx", hfb,
                   [] { return pattern(Pattern::kTranspose, 0.04); },
                   with(Arbiter::kRoundRobin, RoutingMode::kYX), {}});
  cases.push_back({"mesh8_ur_rr_o1turn", mesh, ur(0.05),
                   with(Arbiter::kRoundRobin, RoutingMode::kO1Turn), {}});
  cases.push_back({"hfb8_hotspot_oldest_o1turn", hfb,
                   [] { return pattern(Pattern::kHotspot, 0.03); },
                   with(Arbiter::kOldestFirst, RoutingMode::kO1Turn), {}});
  cases.push_back({"mesh8_ur_vec_bypass", mesh, ur(0.05),
                   [](SimConfig& c) { c.virtual_express_bypass = true; },
                   {}});
  cases.push_back({"hfb8_tornado_vec_bypass_oldest", hfb,
                   [] { return pattern(Pattern::kTornado, 0.04); },
                   [](SimConfig& c) {
                     c.virtual_express_bypass = true;
                     c.arbiter = Arbiter::kOldestFirst;
                   },
                   {}});
  cases.push_back({"mesh8_ur_shallow_2vc_2stage", mesh, ur(0.06),
                   [](SimConfig& c) {
                     c.vcs_per_port = 2;
                     c.buffer_bits_per_router = 5L * 2 * 2 * 256;
                     c.pipeline_stages = 2;
                   },
                   {}});
  // Two-flit VCs under multi-flit packets: upstream VCs stall on credits.
  cases.push_back({"hfb8_ur_min_buffers", hfb, ur(0.05),
                   [](SimConfig& c) { c.buffer_bits_per_router = 1; }, {}});
  cases.push_back({"design8_c8_min_buffers_oldest_o1turn_drop",
                   [] {
                     return topo::make_design(
                         topo::RowTopology(8, topo::parse_links(
                                                  "0-2,0-3,1-3,4-6,4-7,5-7")),
                         8);
                   },
                   ur(0.03),
                   [](SimConfig& c) {
                     c.buffer_bits_per_router = 1;
                     c.arbiter = Arbiter::kOldestFirst;
                     c.routing = RoutingMode::kO1Turn;
                     c.virtual_express_bypass = true;
                     c.faults.policy = FaultPolicy::kDropRetransmit;
                     fault::FaultSet faults;
                     faults.add(
                         fault::LinkFault{{fault::Dim::kRow, 2, {0, 3}}});
                     faults.add(
                         fault::LinkFault{{fault::Dim::kCol, 5, {4, 7}}});
                     c.faults.events.push_back({1200, std::move(faults), 2000});
                   },
                   {}});
  cases.push_back({"hfb8_fault_drain_recover", hfb, ur(0.04),
                   [](SimConfig& c) {
                     c.faults.policy = FaultPolicy::kDrainThenSwap;
                     c.faults.events.push_back({900, express_fault(), 1800});
                   },
                   {}});
  cases.push_back({"hfb8_fault_drop_recover", hfb, ur(0.08),
                   [](SimConfig& c) {
                     c.faults.policy = FaultPolicy::kDropRetransmit;
                     c.faults.events.push_back({900, express_fault(), 1800});
                   },
                   {}});
  cases.push_back({"mesh8_fault_drop_o1turn_local", mesh, ur(0.05),
                   [](SimConfig& c) {
                     c.routing = RoutingMode::kO1Turn;
                     c.faults.policy = FaultPolicy::kDropRetransmit;
                     c.faults.max_retries = 1;
                     fault::FaultSet local;
                     local.add(fault::LinkFault{{fault::Dim::kRow, 4, {3, 4}}});
                     local.add(fault::PortFault{27, 2});
                     c.faults.events.push_back({700, std::move(local), -1});
                   },
                   {}});
  cases.push_back({"design8_placement_scheduled",
                   [] {
                     return topo::make_design(
                         topo::RowTopology(8, topo::parse_links("0-3,3-7")),
                         4);
                   },
                   [] { return traffic::Flows(8, 8, {}); },
                   [](SimConfig& c) {
                     c.warmup_cycles = 0;
                     c.measure_cycles = 400;
                   },
                   {{0, 63, 512, 0},
                    {7, 56, 128, 3},
                    {12, 50, 256, 3},
                    {63, 0, 512, 10},
                    {33, 34, 64, 50},
                    {5, 61, 512, 120}}});
  cases.push_back({"rect6x4_ur_rr_xy",
                   [] { return topo::make_rect_mesh(6, 4); },
                   [] {
                     const int n = 6 * 4;
                     std::vector<traffic::Flow> flows;
                     for (int s = 0; s < n; ++s)
                       for (int d = 0; d < n; ++d)
                         if (s != d) flows.push_back({s, d, 0.05 / (n - 1)});
                     return traffic::Flows(6, 4, std::move(flows));
                   },
                   [](SimConfig&) {}, {}});
  cases.push_back({"mesh8_transpose_saturated_undrained", mesh,
                   [] { return pattern(Pattern::kTranspose, 0.30); },
                   [](SimConfig& c) {
                     c.measure_cycles = 1500;
                     c.drain_cycles = 600;
                   },
                   {}});
  return cases;
}

struct GoldenOutput {
  std::string stats;
  std::string series;
  std::string trace;
  SimStats raw;
};

GoldenOutput run_case(const GoldenCase& gc) {
  const Network network(gc.design(), route::HopWeights{});
  const traffic::Flows demand = gc.demand();
  SimConfig config = base_config();
  gc.configure(config);
  obs::SeriesRecorder series(64);
  GoldenTraceSink trace;
  config.series = &series;
  config.trace = &trace;
  Simulator sim(network, demand, config);
  for (const auto& [src, dst, bits, when] : gc.scheduled)
    sim.schedule_packet(src, dst, bits, when);
  GoldenOutput out;
  out.raw = sim.run();
  out.stats = stats_to_json(out.raw).dump();
  out.series = series.to_json().dump();
  out.trace = trace.text();
  return out;
}

std::string golden_path(const std::string& name, const char* suffix) {
  return std::string(XLP_SIM_GOLDEN_DIR) + "/" + name + suffix;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class SimGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SimGolden, MatchesCheckedInBytes) {
  const GoldenCase& gc = GetParam();
  const GoldenOutput out = run_case(gc);
  const std::pair<const char*, const std::string*> docs[] = {
      {".stats.json", &out.stats},
      {".series.json", &out.series},
      {".trace.jsonl", &out.trace}};
  for (const auto& [suffix, text] : docs) {
    const std::string path = golden_path(gc.name, suffix);
    const std::string golden = read_file(path);
    ASSERT_FALSE(golden.empty()) << "missing golden " << path;
    EXPECT_EQ(*text, golden) << "simulator output drifted from " << path;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SimGolden, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      return param_info.param.name;
    });

// XLP_CHECK_SIM=1 recomputes the simulator's incremental structures every
// cycle and re-runs the full-scan arbiter beside the request lists; any
// disagreement throws. The checked run must still produce the golden bytes.
TEST(SimGoldenChecked, InvariantCheckedRunsMatchGoldens) {
  const char* previous = std::getenv("XLP_CHECK_SIM");
  const std::string saved = previous != nullptr ? previous : "";
  ASSERT_EQ(setenv("XLP_CHECK_SIM", "1", 1), 0);
  for (const GoldenCase& gc : golden_cases()) {
    // Two cases keep this affordable under the sanitizers; CI re-runs the
    // whole label with XLP_CHECK_SIM=1.
    if (gc.name != "mesh8_fault_drop_o1turn_local" &&
        gc.name != "hfb8_tornado_vec_bypass_oldest")
      continue;
    const GoldenOutput out = run_case(gc);
    EXPECT_EQ(out.stats, read_file(golden_path(gc.name, ".stats.json")))
        << gc.name;
    EXPECT_EQ(out.trace, read_file(golden_path(gc.name, ".trace.jsonl")))
        << gc.name;
  }
  if (previous != nullptr)
    ASSERT_EQ(setenv("XLP_CHECK_SIM", saved.c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("XLP_CHECK_SIM"), 0);
}

// The goldens only guard what they exercise: pin down that the fault
// cases really contain retransmissions, recoveries and losses, and that
// the saturated point really is undrained.
TEST(SimGoldenCoverage, CasesExerciseTheirFeatures) {
  const auto find = [](const std::string& name) {
    for (const GoldenCase& gc : golden_cases())
      if (gc.name == name) return run_case(gc).raw;
    ADD_FAILURE() << "no golden case " << name;
    return SimStats{};
  };
  const SimStats drop = find("hfb8_fault_drop_recover");
  EXPECT_EQ(drop.reroutes, 2);
  EXPECT_GT(drop.packets_retransmitted, 0);
  const SimStats drain = find("hfb8_fault_drain_recover");
  EXPECT_EQ(drain.reroutes, 2);
  EXPECT_EQ(drain.packets_dropped, 0);
  const SimStats local = find("mesh8_fault_drop_o1turn_local");
  EXPECT_GT(local.packets_dropped, 0);
  EXPECT_FALSE(find("mesh8_transpose_saturated_undrained").drained);
  EXPECT_GT(find("design8_c8_min_buffers_oldest_o1turn_drop").packets_dropped,
            0);
  EXPECT_TRUE(find("design8_placement_scheduled").drained);
}

}  // namespace
}  // namespace xlp::sim
