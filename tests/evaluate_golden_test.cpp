// Golden-output contract for the evaluate request: for seven designs
// (n = 2 ... 32, plain, sparse, dense and random placements), every
// synthetic pattern and PARSEC model at contention 0 and 0.5, the request
// id and the executor's payload bytes must match the checked-in files under
// tests/data/evaluate_golden/. A workload without demand at its n must be
// rejected. Any change to the demand generators, the routing tables or the
// latency model's summation order that moves one bit shows up here.

#include <gtest/gtest.h>

#include <exception>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "svc/request.hpp"

namespace xlp {
namespace {

struct Design {
  std::string name;
  int n;
  int c;
  std::string links;
};

// gtest prints parameters on failure; the name says it all.
void PrintTo(const Design& design, std::ostream* os) { *os << design.name; }

const std::vector<Design>& designs() {
  static const std::vector<Design> all = {
      {"mesh_2", 2, 1, ""},
      {"row_3", 3, 2, "0-2"},
      {"row_4_c2", 4, 2, "0-3"},
      {"row_8_c4", 8, 4, "1-3,3-7"},
      {"row_8_c2", 8, 2, "0-5"},
      {"random_16_c4", 16, 4, "0-2,0-4,0-7,6-9,7-10,8-14,10-15,11-14"},
      {"random_32_c8", 32, 8,
       "0-2,0-2,1-3,1-4,1-5,2-5,3-5,4-6,5-7,5-7,5-7,5-9,7-10,9-11,9-11,"
       "9-14,11-13,11-14,11-14,12-14,12-14,12-14,13-16,14-16,14-17,14-17,"
       "14-23,15-18,16-18,16-18,17-20,18-20,18-22,18-31,19-21,19-24,21-23,"
       "21-23,22-24,23-27,23-27,24-26,24-26,25-27,27-29,27-31,28-30"},
  };
  return all;
}

/// One line per workload and contention: the request id and payload, or
/// "rejected" when the request cannot be served.
std::string evaluate_grid(const Design& design) {
  static const char* const kWorkloads[] = {
      "uniform_random", "transpose",    "bit_reverse", "bit_complement",
      "shuffle",        "tornado",      "neighbor",    "hotspot",
      "blackscholes",   "bodytrack",    "canneal",     "dedup",
      "ferret",         "fluidanimate", "raytrace",    "swaptions",
      "vips",           "x264"};
  std::string out;
  for (const char* workload : kWorkloads) {
    for (const double contention : {0.0, 0.5}) {
      svc::Request request;
      request.kind = svc::RequestKind::kEvaluate;
      request.n = design.n;
      request.link_limit = design.c;
      request.links = design.links;
      request.workload = workload;
      request.load = 0.02;
      request.contention_per_hop = contention;
      out += std::string(workload) +
             (contention > 0.0 ? " contention=0.5 " : " contention=0 ");
      try {
        const std::string payload =
            svc::execute_request(request, nullptr).dump();
        out += request.id() + " " + payload + "\n";
      } catch (const std::exception&) {
        out += "rejected\n";
      }
    }
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class EvaluateGolden : public ::testing::TestWithParam<Design> {};

TEST_P(EvaluateGolden, MatchesCheckedInBytes) {
  const Design& design = GetParam();
  const std::string path =
      std::string(XLP_EVALUATE_GOLDEN_DIR) + "/" + design.name + ".txt";
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing golden " << path;
  EXPECT_EQ(evaluate_grid(design), golden)
      << "evaluate output drifted from " << path;
}

INSTANTIATE_TEST_SUITE_P(
    Designs, EvaluateGolden, ::testing::ValuesIn(designs()),
    [](const ::testing::TestParamInfo<Design>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace xlp
