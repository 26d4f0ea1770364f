#pragma once

#include <cstdint>
#include <vector>

#include "fault/model.hpp"

namespace xlp::obs {
class SeriesRecorder;
class TraceSink;
}

namespace xlp::runctl {
class RunControl;
}

namespace xlp::sim {

/// What to do with packets already in flight when a fault severs their path.
///  * kDrainThenSwap: graceful reconfiguration — injection is gated, the
///    network drains on the old tables (the dead link keeps carrying the
///    flits already committed to it, a static-reconfiguration assumption),
///    then routing swaps atomically on an empty network;
///  * kDropRetransmit: the fault takes effect immediately — every in-flight
///    packet whose route crosses a dead channel is purged (a conservative
///    over-approximation: a worm that already cleared the channel is dropped
///    too) and its source retransmits it on the rerouted tables, up to
///    `FaultSchedule::max_retries` attempts, keeping the original creation
///    timestamp so measured latency includes the fault penalty.
enum class FaultPolicy { kDrainThenSwap, kDropRetransmit };

/// One timed fault-set activation: `faults` becomes active at `cycle` and,
/// when `recover_cycle >= 0`, retires again at that cycle (transient fault);
/// -1 means permanent.
struct FaultEvent {
  long cycle = 0;
  fault::FaultSet faults;
  long recover_cycle = -1;
};

/// Mid-run fault injection plan. Each activation/retirement triggers a
/// reroute on the surviving subgraph plus a table swap under `policy`.
struct FaultSchedule {
  std::vector<FaultEvent> events;
  FaultPolicy policy = FaultPolicy::kDropRetransmit;
  /// Retransmission attempts per packet under kDropRetransmit; a packet
  /// dropped more than this many times is lost (and reported).
  int max_retries = 3;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
};

/// How packets are routed through the two dimensions.
///  * kXY / kYX: pure dimension-order routing (the paper's default is XY);
///  * kO1Turn: each packet picks XY or YX uniformly at random and the two
///    orientations travel on disjoint VC classes [Seo et al., ISCA'05] —
///    the non-DOR comparison point Section 4.2 argues is unnecessary at
///    realistic loads. Requires at least two VCs per port.
enum class RoutingMode { kXY, kYX, kO1Turn };

/// Switch-allocation policy.
///  * kRoundRobin: classic rotating priority per output port (default);
///  * kOldestFirst: age-based arbitration — the eligible flit whose packet
///    was created earliest wins. Trades a little arbiter complexity for a
///    tighter latency tail (compare p99 in ablation/arbiter).
enum class Arbiter { kRoundRobin, kOldestFirst };

/// Simulator configuration. Defaults model the paper's platform: canonical
/// 3-stage credit-based wormhole routers (Section 5.1) with a handful of
/// virtual channels per port to reduce head-of-line blocking (Section 2.2).
struct SimConfig {
  int vcs_per_port = 4;

  RoutingMode routing = RoutingMode::kXY;

  Arbiter arbiter = Arbiter::kRoundRobin;

  /// Virtual-express-channel mode [Kumar et al., ISCA'07], the *virtual*
  /// alternative the paper contrasts with physical express links (Section
  /// 2.1): a packet continuing straight through an intermediate router (same
  /// dimension, same direction) bypasses the route-compute/VC-allocation
  /// stages and competes for the switch immediately — but it still pays
  /// switch traversal, link traversal and the full wire delay, which is
  /// exactly why its latency reduction is limited compared to physical
  /// express links.
  bool virtual_express_bypass = false;

  /// Total input-buffer budget per router in bits. Section 4.6: "we
  /// configure the buffer size of each router to be the same for all
  /// schemes" so no topology gets an unfair buffering advantage. The per-VC
  /// depth in flits is derived per router from its port count and the flit
  /// width (minimum 2 flits so credit round-trips don't strangle a VC).
  /// Default: what a 5-port, 4-VC, 8-deep, 256-bit mesh router holds.
  long buffer_bits_per_router = 5L * 4 * 8 * 256;

  /// Router pipeline depth in cycles from buffer write to switch
  /// traversal; 3 matches Tr in the analytic model.
  int pipeline_stages = 3;

  long warmup_cycles = 1000;
  long measure_cycles = 10000;
  /// After measurement, run up to this many extra cycles so measured
  /// packets can drain; statistics only count packets created inside the
  /// measurement window.
  long drain_cycles = 20000;

  std::uint64_t seed = 1;

  /// Optional structured trace sink (not owned; must outlive the run).
  /// When set, the simulator emits its discrete events: fault
  /// injections and reroutes as they happen, then a final
  /// `sim.channel_utilization` heatmap derived from the per-channel flit
  /// counts and `sim.done`. Trajectories are the series recorder's (below).
  /// Null by default so instrumentation costs nothing.
  obs::TraceSink* trace = nullptr;

  /// Optional bounded-memory time-series recorder (not owned; must outlive
  /// the run). When set, the simulator appends one sample per series every
  /// 256 cycles: injected/ejected flits in the window, flits in
  /// the network, active routers, mean per-VC buffer occupancy and the
  /// stalled-cycle fraction. Null by default; the disabled path costs a
  /// single branch per cycle (verified by micro_core/sim_run_8x8_series).
  obs::SeriesRecorder* series = nullptr;

  /// Cooperative stop polled once per simulated cycle. When a deadline or
  /// interrupt fires, the run ends at that cycle boundary, statistics are
  /// finalized over the cycles actually simulated, and SimStats::status
  /// records why. Not owned; null (the default) costs nothing.
  runctl::RunControl* control = nullptr;

  /// Mid-run fault injection (empty by default). An empty schedule leaves
  /// the simulator bit-for-bit identical to a fault-free build: no extra
  /// rng draws, no routing indirection cost, no gating.
  FaultSchedule faults;

  /// Derived per-VC depth for a router with `ports` ports at `flit_bits`.
  [[nodiscard]] int vc_depth_flits(int ports, int flit_bits) const {
    const long per_vc =
        buffer_bits_per_router /
        (static_cast<long>(ports) * vcs_per_port * flit_bits);
    return per_vc < 2 ? 2 : static_cast<int>(per_vc);
  }
};

}  // namespace xlp::sim
