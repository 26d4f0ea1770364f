#include "traffic/app_models.hpp"

#include "traffic/demand.hpp"
#include "traffic/patterns.hpp"
#include "util/check.hpp"

namespace xlp::traffic {

TrafficMatrix AppModel::traffic_matrix(int n) const {
  return DemandRows(*this, n).matrix();
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

const char* workload_unfit(const std::string& name, int n) {
  if (const auto pattern = pattern_from_string(name))
    return pattern_unfit(*pattern, n);
  (void)parsec_model(name);  // throws on an unknown name
  return nullptr;
}

TrafficMatrix resolve_workload(const std::string& name, int n, double load) {
  return workload_rows(name, n, load).matrix();
}

}  // namespace xlp::traffic
