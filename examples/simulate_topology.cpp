// Simulate a custom express topology: describe the 1D placement on the
// command line (express links as lo-hi pairs), pick a traffic pattern and a
// load, and get flit-level latency/throughput/power for the resulting
// design.
//
//   $ ./simulate_topology "1-3,3-7" 4 uniform_random 0.02
//     placement      C  pattern        packets/node/cycle
//
// The placement is replicated across all rows and columns (the paper's
// general-purpose construction); C must be a feasible limit for it. The
// pattern may also be a PARSEC model name (at its own injection rate).

#include <cstdio>
#include <cstdlib>

#include "latency/model.hpp"
#include "power/model.hpp"
#include "svc/request.hpp"

using namespace xlp;

int main(int argc, char** argv) {
  // The same request `xlp simulate` and the xlpd service run.
  svc::Request request;
  request.kind = svc::RequestKind::kSimulate;
  request.links = argc > 1 ? argv[1] : "1-3,3-7";
  request.link_limit = argc > 2 ? std::atoi(argv[2]) : 4;
  request.workload = argc > 3 ? argv[3] : "uniform_random";
  request.load = argc > 4 ? std::atof(argv[4]) : 0.02;
  request.n = argc > 5 ? std::atoi(argv[5]) : 8;

  try {
    request.validate();
    const topo::ExpressMesh design = svc::design_of(request);
    std::printf("design: %dx%d, C=%d, flit %d bits, row %s\n", request.n,
                request.n, request.link_limit, design.flit_bits(),
                design.row(0).to_string().c_str());

    const latency::MeshLatencyModel model(
        design, latency::LatencyParams::zero_load());
    std::printf("analytic: avg %.2f cycles (head %.2f + serialization "
                "%.2f), worst %.1f, avg hops %.2f\n",
                model.average().total(), model.average().head,
                model.average().serialization, model.worst_case(),
                model.average_hops());

    const auto stats = svc::simulate(request);
    std::printf("simulated @ %.3f packets/node/cycle (%s):\n", request.load,
                request.workload.c_str());
    std::printf("  avg latency %.2f cycles, head %.2f, max %.0f\n",
                stats.avg_latency, stats.avg_head_latency, stats.max_latency);
    std::printf("  accepted %.4f packets/node/cycle, contention %.2f "
                "cycles/hop, drained: %s\n",
                stats.throughput_packets_per_node_cycle,
                stats.avg_contention_per_hop, stats.drained ? "yes" : "NO");

    const auto power = power::evaluate_power(
        design, stats.activity, sim::SimConfig{}.buffer_bits_per_router);
    std::printf("  router power: %.3f W total (%.3f dynamic + %.3f "
                "static)\n",
                power.total(), power.dynamic_total(), power.static_total());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
