#pragma once

#include <functional>
#include <vector>

#include "latency/packet_mix.hpp"
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
  PacketMix mix = PacketMix::paper_default();

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

/// Running sums of one pass over every ordered pair src != dst.
struct PairSums {
  double weighted_head = 0.0;  ///< sum of w * head latency
  double weight = 0.0;         ///< sum of w
  double worst = 0.0;          ///< largest head latency + serialization
};

/// Where sum_pairs() reads source `src`'s demand: N rates, one per
/// destination node, valid until the next call.
using RowSource = std::function<const double*(int src)>;

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

  /// The one pass every average below is made of: visits each ordered pair
  /// once, sources in id order and each source's destinations in id order,
  /// asking `demand` for a source's row once. A pair's head latency is
  /// computed once from per-row and per-column cost and hop tables, and
  /// feeds the weighted sums and the worst case. Every rate must be
  /// non-negative, the diagonal included.
  [[nodiscard]] PairSums sum_pairs(const RowSource& demand) const;

  /// The weighted average breakdown of a pass; its weight must be
  /// positive.
  [[nodiscard]] LatencyBreakdown weighted_average(const PairSums& sums) const;

  /// Average breakdown over all ordered pairs (Eq. 2 with uniform weights).
  [[nodiscard]] LatencyBreakdown average() const;

  /// Average breakdown weighted by a flattened N*N traffic-rate matrix
  /// (Section 5.6.4). Rates must be non-negative with positive off-diagonal
  /// sum.
  [[nodiscard]] LatencyBreakdown weighted_average(
      const std::vector<double>& rates) const;

  /// Maximum zero-load packet latency over all pairs (Table 2). Includes the
  /// mix-averaged serialization term, matching how the paper reports it.
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
  /// sum_pairs() with weight 1 on every pair.
  [[nodiscard]] PairSums uniform_sums() const;

  int nodes_;
  LatencyParams params_;
  route::MeshRouting routing_;
  double serialization_;
};

}  // namespace xlp::latency
