#pragma once

#include "latency/line_demand.hpp"
#include "route/mesh_routing.hpp"
#include "topo/express_mesh.hpp"

namespace xlp::latency {

/// Calibrated parameters of Eq. (1): L = H*Tr + D_M*Tl + H*Tc + S/b.
///
/// Calibration note: the paper's Table 2 mesh rows are matched exactly when
/// the router term counts routers *traversed* (hops + 1, the destination
/// router included) rather than links: 4x4 worst case = 7*3 + 6 + 1.2 = 28.2
/// and 8x8 = 15*3 + 14 + 1.2 = 60.2. We therefore charge Tr once per router
/// on the path, Tl per unit wire length, and Tc per link as the average
/// contention allowance (zero at zero load).
struct LatencyParams {
  route::HopWeights hop;              // Tr (per router) and Tl (per unit)
  double contention_per_hop = 0.0;    // Tc: average per-hop contention

  [[nodiscard]] static LatencyParams zero_load() { return {}; }
  /// The empirical PARSEC operating point: Section 4.2 reports average
  /// contention per hop "almost always less than 1 cycle"; 0.5 is the
  /// midpoint we use when the analytic model stands in for simulation.
  [[nodiscard]] static LatencyParams parsec_typical() {
    LatencyParams p;
    p.contention_per_hop = 0.5;
    return p;
  }
};

/// Head + serialization decomposition reported throughout Section 5.
struct LatencyBreakdown {
  double head = 0.0;           // L_D
  double serialization = 0.0;  // L_S
  [[nodiscard]] double total() const noexcept { return head + serialization; }
};

/// Analytic zero-/low-load latency evaluator for a 2D design point. All
/// averages are over ordered source/destination pairs with src != dst (a
/// core never sends packets to itself through the network).
class MeshLatencyModel {
 public:
  MeshLatencyModel(const topo::ExpressMesh& mesh, LatencyParams params);

  /// Head latency of one pair: Tr * (links + 1) + Tl * Manhattan distance
  /// + Tc * links. Zero when src == dst.
  [[nodiscard]] double pair_head_latency(int src, int dst) const;

  /// Mix-averaged total latency of one pair (head + serialization).
  [[nodiscard]] double pair_latency(int src, int dst) const;

  /// The one fold every average is made of (Section 4.2's 2D->1D
  /// reduction): with W the demand's total, the weighted head sum is
  /// sum A_y * (row cost + Tc * row hops) over every row block, plus
  /// sum B_x * (column cost + Tc * column hops) over every column block,
  /// plus Tr * W for the destination router; O(n^3) for an n x n design.
  /// Throws PreconditionError when the demand's dimensions differ from the
  /// design's, an entry is negative or W is zero.
  [[nodiscard]] LatencyBreakdown weighted_average(
      const LineDemand& demand) const;

  /// Average breakdown over all ordered pairs (Eq. 2 with uniform weights):
  /// the fold over pair counts, exact for integer and half-integer costs.
  [[nodiscard]] LatencyBreakdown average() const;

  /// Maximum zero-load packet latency over all pairs (Table 2). Includes the
  /// mix-averaged serialization term, matching how the paper reports it.
  /// Independent of demand: the dearest row segment into each (source row,
  /// destination column) turning point plus the dearest column segment out
  /// of it, O(n^3).
  [[nodiscard]] double worst_case() const;

  /// Average hop (link) count over all ordered pairs.
  [[nodiscard]] double average_hops() const;

  [[nodiscard]] const route::MeshRouting& routing() const noexcept {
    return routing_;
  }
  [[nodiscard]] const LatencyParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] double serialization_cycles() const {
    return serialization_;
  }

 private:
  int nodes_;
  LatencyParams params_;
  route::MeshRouting routing_;
  double serialization_;
};

}  // namespace xlp::latency
