#pragma once

#include <utility>
#include <vector>

#include "fault/model.hpp"
#include "route/deadlock.hpp"
#include "route/directional_paths.hpp"
#include "route/mesh_routing.hpp"
#include "topo/express_mesh.hpp"

namespace xlp::fault {

/// Outcome of recomputing routing tables on the surviving monotone subgraph.
///
/// The rerouted tables stay within the paper's deadlock-free routing class:
/// packets still travel monotonically per dimension with a single row->col
/// (or col->row) turn, only the within-row/column paths change. Pairs whose
/// surviving monotone subgraph is severed are reported, not routed — the
/// caller decides whether to refuse that traffic or escalate.
struct RerouteResult {
  route::MeshRouting routing;

  /// Ordered (src, dst) node pairs with no surviving route, per orientation.
  std::vector<std::pair<int, int>> unreachable_xy;
  std::vector<std::pair<int, int>> unreachable_yx;

  /// Channel-dependency acyclicity of the rerouted tables, re-verified in
  /// both orientations (Dally & Seitz). Monotone DOR tables are acyclic by
  /// construction; the explicit check guards the construction.
  bool acyclic_xy = true;
  bool acyclic_yx = true;
  /// First witness cycle found when a verification failed; empty otherwise.
  std::vector<route::Channel> cycle_witness;

  [[nodiscard]] bool fully_connected() const noexcept {
    return unreachable_xy.empty() && unreachable_yx.empty();
  }
  [[nodiscard]] bool deadlock_free() const noexcept {
    return acyclic_xy && acyclic_yx;
  }
};

/// Rebuilds shortest-path routing tables for `mesh` with every channel the
/// fault set kills removed from the monotone adjacency, then re-verifies
/// deadlock freedom in both orientations. Port faults do not affect routing
/// (they only slow a router down) and are ignored here.
[[nodiscard]] RerouteResult reroute(const topo::ExpressMesh& mesh,
                                    const FaultSet& faults,
                                    route::HopWeights weights = {});

}  // namespace xlp::fault
