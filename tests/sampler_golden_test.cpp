// Golden-output contract for the packet sampler (traffic::Injection) where
// it reads a workload's demand rows: the traces `xlp trace --n 8 --load 0.05
// --cycles 300 --seed 7` writes for three patterns and two PARSEC models,
// and the simulate request's payloads for a PARSEC model, hotspot, and the
// PARSEC model under O1TURN, must match the checked-in files under
// tests/data/sampler_golden/ byte for byte. A change to the draw order, the
// destination shares or the packet mix shows up here.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "svc/request.hpp"
#include "traffic/demand.hpp"
#include "traffic/trace.hpp"
#include "util/rng.hpp"

namespace xlp {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string golden(const std::string& name) {
  const std::string path =
      std::string(XLP_SAMPLER_GOLDEN_DIR) + "/" + name + ".txt";
  std::string text = read_file(path);
  EXPECT_FALSE(text.empty()) << "missing golden " << path;
  return text;
}

class SamplerGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(SamplerGolden, TraceMatchesCheckedInBytes) {
  const std::string workload = GetParam();
  Rng rng(7);
  std::ostringstream out;
  traffic::Trace::sample(traffic::workload_rows(workload, 8, 0.05), 300, rng)
      .save(out);
  EXPECT_EQ(out.str(), golden("trace_" + workload));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SamplerGolden,
    ::testing::Values("uniform_random", "hotspot", "transpose", "canneal",
                      "ferret"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

/// One line per simulate request: its name, id and payload.
std::string simulate_line(const std::string& name, const std::string& workload,
                          double load, const std::string& routing) {
  svc::Request request;
  request.kind = svc::RequestKind::kSimulate;
  request.n = 8;
  request.link_limit = 4;
  request.links = "1-3,3-7";
  request.workload = workload;
  request.load = load;
  request.routing = routing;
  request.cycles = 2000;
  request.seed = 5;
  return name + " " + request.id() + " " +
         svc::execute_request(request, nullptr).dump() + "\n";
}

TEST(SamplerGolden, SimulatePayloadsMatchCheckedInBytes) {
  EXPECT_EQ(simulate_line("canneal", "canneal", 0.02, "xy") +
                simulate_line("hotspot", "hotspot", 0.05, "xy") +
                simulate_line("canneal_o1turn", "canneal", 0.02, "o1turn"),
            golden("simulate"));
}

}  // namespace
}  // namespace xlp
