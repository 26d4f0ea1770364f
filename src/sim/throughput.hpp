#pragma once

#include <vector>

#include "sim/config.hpp"
#include "sim/network.hpp"
#include "sim/stats.hpp"
#include "traffic/demand.hpp"

namespace xlp::sim {

/// One sample of the load/latency curve.
struct LoadPoint {
  double offered = 0.0;   // packets/node/cycle
  double accepted = 0.0;  // packets/node/cycle actually delivered
  double avg_latency = 0.0;
  bool saturated = false;  // latency blow-up or undelivered measured packets
};

struct SaturationResult {
  std::vector<LoadPoint> curve;
  /// Saturation throughput: the largest accepted rate observed before (or
  /// at) saturation — Fig. 8(b)'s metric.
  double saturation_throughput = 0.0;
};

/// Runs one simulation with the traffic `shape` rescaled so that the mean
/// per-node injection rate is `per_node_rate`: each positive rate r of its
/// rows becomes r * (target / total), a traffic::Flows entry, where total
/// is the sum of its rows in node id order.
[[nodiscard]] SimStats simulate_at_load(const Network& network,
                                        const traffic::Demand& shape,
                                        double per_node_rate,
                                        const SimConfig& config);

/// Sweeps offered load from `step` upward in increments of `step` (up to
/// `max_rate`), stopping two points after saturation is detected. A point
/// counts as saturated when measured packets fail to drain or the average
/// latency exceeds `latency_blowup` times the first point's latency.
[[nodiscard]] SaturationResult find_saturation(
    const Network& network, const traffic::Demand& shape,
    const SimConfig& config, double step = 0.02, double max_rate = 0.6,
    double latency_blowup = 6.0);

}  // namespace xlp::sim
