#include "sim/throughput.hpp"

#include <algorithm>

#include "sim/simulator.hpp"
#include "traffic/flows.hpp"
#include "util/check.hpp"

namespace xlp::sim {

SimStats simulate_at_load(const Network& network,
                          const traffic::Demand& shape,
                          double per_node_rate, const SimConfig& config) {
  XLP_REQUIRE(per_node_rate > 0.0, "offered load must be positive");
  const int nodes = shape.width() * shape.height();
  std::vector<double> row(static_cast<std::size_t>(nodes));
  std::vector<traffic::Flow> flows;
  double total = 0.0;
  for (int src = 0; src < nodes; ++src) {
    shape.fill(src, row);
    for (int dst = 0; dst < nodes; ++dst) {
      const double r = row[static_cast<std::size_t>(dst)];
      total += r;
      if (r > 0.0) flows.push_back({src, dst, r});
    }
  }
  XLP_REQUIRE(total > 0.0, "cannot scale an all-zero demand");
  const double factor = per_node_rate * network.node_count() / total;
  for (traffic::Flow& flow : flows) flow.rate *= factor;
  const traffic::Flows demand(shape.width(), shape.height(),
                              std::move(flows));
  Simulator sim(network, demand, config);
  return sim.run();
}

SaturationResult find_saturation(const Network& network,
                                 const traffic::Demand& shape,
                                 const SimConfig& config, double step,
                                 double max_rate, double latency_blowup) {
  XLP_REQUIRE(step > 0.0 && max_rate >= step, "bad sweep range");

  SaturationResult result;
  double base_latency = 0.0;
  int points_past_saturation = 0;
  for (double rate = step; rate <= max_rate + 1e-12; rate += step) {
    const SimStats stats = simulate_at_load(network, shape, rate, config);

    LoadPoint point;
    point.offered = stats.offered_packets_per_node_cycle;
    point.accepted = stats.throughput_packets_per_node_cycle;
    point.avg_latency = stats.avg_latency;
    if (result.curve.empty()) base_latency = stats.avg_latency;
    point.saturated =
        !stats.drained ||
        (base_latency > 0.0 && stats.avg_latency > latency_blowup * base_latency);
    result.curve.push_back(point);
    result.saturation_throughput =
        std::max(result.saturation_throughput, point.accepted);

    if (point.saturated && ++points_past_saturation >= 2) break;
  }
  return result;
}

}  // namespace xlp::sim
