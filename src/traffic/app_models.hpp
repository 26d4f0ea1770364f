#pragma once

#include <string>
#include <vector>

#include "traffic/matrix.hpp"
#include "util/rng.hpp"

namespace xlp::traffic {

/// Parameterized stand-in for a PARSEC 2.0 benchmark running on a CMP.
///
/// The paper collects traffic from full-system gem5 runs; that substrate is
/// unavailable here, so each benchmark is modeled by the three properties
/// that determine NoC behaviour at the level this study needs (see
/// DESIGN.md "Substitutions"):
///   * `injection_rate` — packets/node/cycle; PARSEC loads are low
///     (Section 2.2 and [7]), so rates are in the 0.5%..4% range.
///   * `locality` — share of a node's traffic that targets nearby nodes
///     (decaying with Manhattan distance); captures producer/consumer
///     pipelines vs. all-to-all sharing.
///   * `hotspot_share` — share directed to a few hub nodes (directory/
///     memory-controller style concentration).
/// The remainder is uniform-random. Rates are deterministic per benchmark
/// (hub choice is seeded by the benchmark's index), so experiments
/// reproduce exactly.
struct AppModel {
  std::string name;
  double injection_rate = 0.02;  // packets per node per cycle
  double locality = 0.3;         // fraction of near-neighbor traffic
  double hotspot_share = 0.1;    // fraction to hub nodes
  int hub_count = 2;
  double locality_scale = 2.0;   // Manhattan e-folding distance (hops)

  /// Expected traffic matrix on an n x n network: the rows of
  /// DemandRows(*this, n).
  [[nodiscard]] TrafficMatrix traffic_matrix(int n) const;
};

/// The ten PARSEC 2.0 workloads of Fig. 6, in the paper's order.
[[nodiscard]] const std::vector<AppModel>& parsec_models();

/// Lookup by name; throws PreconditionError when unknown.
[[nodiscard]] const AppModel& parsec_model(const std::string& name);

/// The "average over the ten benchmarks" workload the paper uses for
/// Fig. 5: the mean of the per-benchmark traffic matrices.
[[nodiscard]] TrafficMatrix parsec_average_matrix(int n);

/// Whether `name` is a synthetic pattern or a PARSEC model name.
[[nodiscard]] bool is_known_workload(const std::string& name);

/// Why known workload `name` has no demand on an n x n network, or nullptr
/// when it has: pattern_unfit() for a pattern; a PARSEC model always has.
[[nodiscard]] const char* workload_unfit(const std::string& name, int n);

/// The dense matrix of workload_rows(name, n, load) (traffic/demand.hpp):
/// a synthetic pattern at `load` packets/node/cycle, or a PARSEC model at
/// its own injection rate.
[[nodiscard]] TrafficMatrix resolve_workload(const std::string& name, int n,
                                             double load);

}  // namespace xlp::traffic
