// Golden-output contract for the solve layer: for a fixed set of solves —
// every method through the request executor at one and three chains, the
// checkpoints a 500-move sink leaves behind, a resume of each checkpoint
// kind from its midpoint, a portfolio's series document, the square and
// rectangular C-sweeps and two app-specific placements — the bytes must
// match the checked-in files under tests/data/solve_golden/. Any change to
// the solver dispatch, the chain wiring, the sweep cells or the
// app-specific line weights that moves a single draw shows up here.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/c_sweep.hpp"
#include "core/drivers.hpp"
#include "core/portfolio.hpp"
#include "latency/model.hpp"
#include "obs/timeseries.hpp"
#include "runctl/checkpoint.hpp"
#include "runctl/control.hpp"
#include "svc/request.hpp"
#include "util/rng.hpp"

namespace xlp {
namespace {

constexpr int kN = 8;
constexpr int kC = 4;
constexpr long kMoves = 2000;
constexpr std::uint64_t kSeed = 3;
constexpr long kSinkEvery = 500;
constexpr long kMidpoint = 1000;

struct GoldenCase {
  std::string name;
  std::function<std::string()> produce;
};

// gtest prints parameters on failure; the name says it all.
void PrintTo(const GoldenCase& gc, std::ostream* os) { *os << gc.name; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "xlp_solve_golden_" + name;
}

svc::Request solve_request(const std::string& method, int chains) {
  svc::Request request;
  request.n = kN;
  request.link_limit = kC;
  request.method = method;
  request.moves = kMoves;
  request.chains = chains;
  request.seed = kSeed;
  return request;
}

std::string describe(const core::PlacementResult& result) {
  char value[64];
  std::snprintf(value, sizeof value, "%.17g", result.value);
  return "placement=" + result.placement.to_string() + " value=" + value +
         " evaluations=" + std::to_string(result.evaluations) +
         " method=" + result.method +
         " status=" + runctl::to_string(result.status) + "\n";
}

/// The file a checkpointed svc::solve leaves behind, after `result`.
std::string checkpointed_solve(const std::string& name, int chains,
                               const core::SaParams& hooks) {
  const std::string path = tmp_path(name + ".json");
  std::remove(path.c_str());
  long portfolio_evaluations = -1;
  const core::PlacementResult result = svc::solve(
      solve_request("dcsa", chains), hooks, path, &portfolio_evaluations);
  return describe(result) +
         "portfolio_evaluations=" + std::to_string(portfolio_evaluations) +
         "\n" + read_file(path);
}

core::SaParams sink_hooks() {
  core::SaParams hooks;
  hooks.checkpoint_every_moves = kSinkEvery;
  return hooks;
}

/// A single-chain D&C_SA solve, as svc::solve runs it, interrupted by its
/// checkpoint sink once it has made kMidpoint moves: its early-stop
/// checkpoint is the midpoint snapshot.
std::string sa_midpoint(const std::string& path) {
  runctl::CancelToken token;
  runctl::RunControl control(&token);
  core::SaParams params = core::SaParams{}.with_moves(kMoves);
  params.control = &control;
  params.checkpoint_every_moves = kSinkEvery;
  const auto write = runctl::sa_checkpoint_file_sink(path);
  params.checkpoint_sink = [&write, &token](const runctl::SaCheckpoint& ck) {
    write(ck);
    if (ck.next_move == kMidpoint)
      token.request(runctl::RunStatus::kInterrupted);
  };
  std::remove(path.c_str());
  Rng rng(kSeed);
  const core::PlacementResult result = core::solve_row(
      core::RowObjective(kN, route::HopWeights{}), kC, core::Solver::kDcsa,
      params, {}, rng);
  return describe(result) + read_file(path);
}

/// A three-chain OnlySA portfolio state as it stands mid-run: chains 0 and
/// 1 at their kMidpoint snapshot, chain 2 never started (it restarts from
/// scratch on resume).
runctl::PortfolioCheckpoint portfolio_midpoint() {
  const core::SaParams base = core::SaParams{}.with_moves(kMoves);
  runctl::PortfolioCheckpoint pc;
  pc.n = kN;
  pc.link_limit = kC;
  pc.chains = 3;
  pc.seed = kSeed;
  pc.solver = "onlysa";
  pc.schedule = base.schedule();
  for (std::uint64_t chain = 0; chain < 2; ++chain) {
    core::SaParams params = base;
    params.checkpoint_every_moves = kSinkEvery;
    std::optional<runctl::SaCheckpoint> midpoint;
    params.checkpoint_sink = [&midpoint](const runctl::SaCheckpoint& ck) {
      if (ck.next_move == kMidpoint) midpoint = ck;
    };
    Rng rng = Rng(kSeed).fork(chain);
    (void)core::solve_only_sa(core::RowObjective(kN, route::HopWeights{}), kC,
                              params, rng);
    pc.chain_states.push_back(midpoint);
  }
  pc.chain_states.emplace_back(std::nullopt);
  return pc;
}

/// Resumes the checkpoint file at `path` through svc::solve, refreshing it
/// every kSinkEvery moves; returns the result and the refreshed file.
std::string resume_from(const std::string& path) {
  const runctl::CheckpointFile file = runctl::load_checkpoint_file(path);
  long portfolio_evaluations = -1;
  const core::PlacementResult result =
      svc::solve(svc::resumed_request(file), sink_hooks(), path,
                 &portfolio_evaluations, &file);
  return describe(result) +
         "portfolio_evaluations=" + std::to_string(portfolio_evaluations) +
         "\n" + read_file(path);
}

std::string sweep(int width, int height) {
  core::SweepOptions options;
  options.sa = core::SaParams{}.with_moves(kMoves);
  options.latency = latency::LatencyParams::zero_load();
  Rng rng(kSeed);
  const std::vector<core::SweepPoint> points =
      core::sweep_link_limits(width, height, options, rng);
  std::string out;
  for (const core::SweepPoint& p : points) {
    char total[64];
    std::snprintf(total, sizeof total, "%.17g", p.breakdown.total());
    out += "C=" + std::to_string(p.link_limit) +
           " flit=" + std::to_string(p.design.flit_bits()) +
           " rows=" + p.placement.placement.to_string() +
           " cols=" + p.design.col(0).to_string() +
           " evaluations=" + std::to_string(p.placement.evaluations) +
           " total=" + total + "\n";
  }
  out += "rng_after=" + std::to_string(rng()) + "\n";
  return out;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const char* method : {"dcsa", "onlysa", "dnc", "exact"}) {
    for (const int chains : {1, 3}) {
      cases.push_back(
          {std::string("request_") + method + "_chains" +
               std::to_string(chains),
           [method, chains] {
             const svc::Request request = solve_request(method, chains);
             return request.id() + "\n" +
                    svc::execute_request(request, nullptr).dump() + "\n";
           }});
    }
  }
  cases.push_back({"sa_checkpoint_final", [] {
                     return checkpointed_solve("sa_final", 1, sink_hooks());
                   }});
  cases.push_back({"portfolio_checkpoint_final", [] {
                     return checkpointed_solve("portfolio_final", 3,
                                               sink_hooks());
                   }});
  cases.push_back({"sa_checkpoint_midpoint", [] {
                     return sa_midpoint(tmp_path("sa_midpoint.json"));
                   }});
  cases.push_back({"sa_resume", [] {
                     const std::string path = tmp_path("sa_resume.json");
                     (void)sa_midpoint(path);
                     return resume_from(path);
                   }});
  cases.push_back({"portfolio_checkpoint_midpoint", [] {
                     return portfolio_midpoint().to_json().dump() + "\n";
                   }});
  cases.push_back({"portfolio_resume", [] {
                     const std::string path =
                         tmp_path("portfolio_resume.json");
                     runctl::save_portfolio_checkpoint(path,
                                                       portfolio_midpoint());
                     return resume_from(path);
                   }});
  cases.push_back({"portfolio_series", [] {
                     obs::SeriesRecorder series(64);
                     core::SaParams hooks;
                     hooks.series = &series;
                     (void)svc::solve(solve_request("dcsa", 3), hooks);
                     return series.to_json().dump() + "\n";
                   }});
  cases.push_back({"sweep_8x8", [] { return sweep(8, 8); }});
  cases.push_back({"sweep_8x4", [] { return sweep(8, 4); }});
  for (const char* workload : {"canneal", "uniform_random"}) {
    cases.push_back({std::string("appspec_") + workload + "_8", [workload] {
                       svc::Request request;
                       request.kind = svc::RequestKind::kAppspec;
                       request.n = kN;
                       request.moves = kMoves;
                       request.workload = workload;
                       request.seed = kSeed;
                       return request.id() + "\n" +
                              svc::execute_request(request, nullptr).dump() +
                              "\n";
                     }});
  }
  return cases;
}

class SolveGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SolveGolden, MatchesCheckedInBytes) {
  const GoldenCase& gc = GetParam();
  const std::string path =
      std::string(XLP_SOLVE_GOLDEN_DIR) + "/" + gc.name + ".txt";
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing golden " << path;
  EXPECT_EQ(gc.produce(), golden) << "solve output drifted from " << path;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SolveGolden, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      return param_info.param.name;
    });

// A resumed run continues the interrupted trajectory bit for bit: from its
// midpoint, each checkpoint kind ends on the uninterrupted run's answer.
TEST(SolveGoldenResume, ResumedRunsEndWhereUninterruptedRunsEnd) {
  const std::string sa_path = tmp_path("sa_equivalence.json");
  (void)sa_midpoint(sa_path);
  const core::PlacementResult full = svc::solve(solve_request("dcsa", 1));
  const std::string resumed = resume_from(sa_path);
  EXPECT_EQ(resumed.substr(0, resumed.find(" evaluations=")),
            describe(full).substr(0, describe(full).find(" evaluations=")));

  const std::string pf_path = tmp_path("portfolio_equivalence.json");
  runctl::save_portfolio_checkpoint(pf_path, portfolio_midpoint());
  const core::PlacementResult portfolio =
      svc::solve(solve_request("onlysa", 3));
  const std::string pf_resumed = resume_from(pf_path);
  EXPECT_EQ(pf_resumed.substr(0, pf_resumed.find(" evaluations=")),
            describe(portfolio).substr(
                0, describe(portfolio).find(" evaluations=")));
}

}  // namespace
}  // namespace xlp
