#include "traffic/app_models.hpp"

#include <cmath>
#include <cstdlib>

#include "traffic/patterns.hpp"
#include "util/check.hpp"

namespace xlp::traffic {

TrafficMatrix AppModel::traffic_matrix(int n) const {
  XLP_REQUIRE(injection_rate >= 0.0, "injection rate must be non-negative");
  XLP_REQUIRE(locality >= 0.0 && hotspot_share >= 0.0 &&
                  locality + hotspot_share <= 1.0,
              "traffic shares must be non-negative and sum to at most 1");
  TrafficMatrix m(n);
  const int nodes = n * n;

  // Hubs are a deterministic function of the benchmark name so that each
  // workload has a stable personality across runs and network sizes.
  std::uint64_t name_hash = 1469598103934665603ULL;
  for (const char ch : name) {
    name_hash ^= static_cast<unsigned char>(ch);
    name_hash *= 1099511628211ULL;
  }
  Rng hub_rng(name_hash);
  std::vector<int> hubs;
  for (int h = 0; h < hub_count; ++h)
    hubs.push_back(static_cast<int>(hub_rng.uniform_below(nodes)));

  const double uniform_share = 1.0 - locality - hotspot_share;
  for (int src = 0; src < nodes; ++src) {
    const int sx = src % n;
    const int sy = src / n;

    // Locality component: weights decay exponentially in Manhattan distance.
    double local_norm = 0.0;
    for (int dst = 0; dst < nodes; ++dst) {
      if (dst == src) continue;
      const int d = std::abs(dst % n - sx) + std::abs(dst / n - sy);
      local_norm += std::exp(-static_cast<double>(d) / locality_scale);
    }
    for (int dst = 0; dst < nodes; ++dst) {
      if (dst == src) continue;
      const int d = std::abs(dst % n - sx) + std::abs(dst / n - sy);
      const double local_w =
          std::exp(-static_cast<double>(d) / locality_scale) / local_norm;
      double r = injection_rate * (locality * local_w +
                                   uniform_share / (nodes - 1));
      m.add_rate(src, dst, r);
    }
    if (!hubs.empty() && hotspot_share > 0.0) {
      // Count how many hub slots point away from src; traffic to a hub that
      // happens to equal src stays off the network.
      for (int hub : hubs)
        if (hub != src)
          m.add_rate(src, hub,
                     injection_rate * hotspot_share /
                         static_cast<double>(hubs.size()));
    }
  }
  return m;
}

const std::vector<AppModel>& parsec_models() {
  // Injection rates and traffic shapes are synthetic but differentiated:
  // data-parallel kernels (blackscholes, swaptions) are light and local;
  // pipeline workloads (dedup, ferret) lean on hub nodes; canneal and
  // fluidanimate exchange more uniformly at higher load (they are the
  // memory-intensive outliers in PARSEC NoC characterizations).
  static const std::vector<AppModel> models = {
      {"blackscholes", 0.008, 0.50, 0.05, 2, 2.0},
      {"bodytrack", 0.018, 0.35, 0.15, 3, 2.0},
      {"canneal", 0.040, 0.10, 0.10, 2, 3.0},
      {"dedup", 0.025, 0.25, 0.25, 4, 2.0},
      {"ferret", 0.028, 0.20, 0.25, 4, 2.5},
      {"fluidanimate", 0.035, 0.45, 0.05, 2, 1.5},
      {"raytrace", 0.015, 0.30, 0.10, 2, 2.5},
      {"swaptions", 0.006, 0.55, 0.05, 2, 1.5},
      {"vips", 0.022, 0.30, 0.20, 3, 2.0},
      {"x264", 0.030, 0.40, 0.10, 3, 1.5},
  };
  return models;
}

const AppModel& parsec_model(const std::string& name) {
  for (const AppModel& m : parsec_models())
    if (m.name == name) return m;
  XLP_FAIL("unknown PARSEC model: " + name);
}

TrafficMatrix parsec_average_matrix(int n) {
  const auto& models = parsec_models();
  TrafficMatrix avg(n);
  for (const AppModel& m : models) {
    const TrafficMatrix tm = m.traffic_matrix(n);
    for (int src = 0; src < avg.node_count(); ++src)
      for (int dst = 0; dst < avg.node_count(); ++dst)
        if (src != dst)
          avg.add_rate(src, dst,
                       tm.rate(src, dst) /
                           static_cast<double>(models.size()));
  }
  return avg;
}

bool is_known_workload(const std::string& name) {
  if (pattern_from_string(name)) return true;
  for (const AppModel& model : parsec_models())
    if (model.name == name) return true;
  return false;
}

TrafficMatrix resolve_workload(const std::string& name, int n, double load) {
  XLP_REQUIRE(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
  if (const auto pattern = pattern_from_string(name))
    return TrafficMatrix::from_pattern(*pattern, n, load);
  return parsec_model(name).traffic_matrix(n);
}

}  // namespace xlp::traffic
