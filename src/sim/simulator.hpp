#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/model.hpp"
#include "route/mesh_routing.hpp"

#include "sim/config.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"
#include "sim/stats.hpp"
#include "traffic/injection.hpp"
#include "util/rng.hpp"

namespace xlp::sim {

/// Flit-level, cycle-based wormhole NoC simulator — the stand-in for
/// gem5+GARNET (see DESIGN.md "Substitutions").
///
/// Model summary:
///  * canonical 3-stage routers: buffer write at cycle t, route compute /
///    VC allocation, switch allocation from t+2; a granted flit reaches the
///    next router at grant + 1 + link_length (pipelined repeated wires,
///    1 flit/cycle bandwidth regardless of length);
///  * per-port virtual channels with credit-based flow control; the total
///    buffer bits per router are equal across topologies (Section 4.6), so
///    narrow-flit designs get proportionally deeper VCs;
///  * table-driven deadlock-free DOR routing from route::MeshRouting — the
///    simulator routes exactly what the optimizer optimized;
///  * Bernoulli injection per node, drawn from a traffic::Demand by
///    traffic::Injection.
///
/// At zero load the end-to-end latency reproduces the analytic model
/// exactly: (hops+1)*3 + distance + flits, measured creation -> tail eject.
class Simulator {
 public:
  /// A network with no stochastic traffic: only scheduled packets run.
  Simulator(const Network& network, const SimConfig& config);

  /// Stochastic traffic at `demand`'s rates.
  Simulator(const Network& network, const traffic::Demand& demand,
            const SimConfig& config);

  /// Runs warmup + measurement + drain and returns the statistics.
  [[nodiscard]] SimStats run();

  /// Trace-driven injection: queues one packet for creation at the given
  /// cycle, in addition to any stochastic demand traffic. Must be called
  /// before run(). Useful for replaying traces and for exact zero-load
  /// latency measurements.
  void schedule_packet(int src, int dst, int bits, long create_cycle);

  /// Latency (creation to tail ejection) of the packet with the given id,
  /// valid after run(); -1 if it never drained.
  [[nodiscard]] long packet_latency(long packet_id) const;

 private:
  struct NodeState {
    std::deque<Flit> source_queue;  // flits of queued packets, in order
    int active_vc = -1;             // port-0 VC owned by the packet being sent
    long active_packet = -1;        // the packet mid-injection on active_vc
  };

  /// One switch request: a live input VC whose front flit is ready and has
  /// a downstream credit.
  struct Request {
    int out;    // requested output port
    int slot;   // port * vcs + vc within the router
    int port;   // input port (one grant per input port per cycle)
    long ready;  // effective ready cycle, for contention stats
  };

  long create_packet(int src, int dst, int bits);
  /// Routing table new packets will travel under: the pending rerouted
  /// tables while a drain-then-swap is in progress, the live ones otherwise.
  [[nodiscard]] const route::MeshRouting& admission_routing() const noexcept {
    return pending_routing_ ? *pending_routing_ : *routing_;
  }
  /// Picks a routing orientation for a src->dst packet per the configured
  /// mode; with the fault system engaged, restricted to orientations that
  /// still reach dst. Returns false when no surviving orientation exists.
  [[nodiscard]] bool choose_orientation(const route::MeshRouting& routing,
                                        int src, int dst, bool* y_first);
  /// Output port at `router` toward `dst` under the live routing tables:
  /// one port_table_ load (port 0 when router == dst).
  [[nodiscard]] int output_port(int router, int dst, bool y_first) const;
  /// Rebuilds port_table_ from `routing` (the live tables).
  void build_port_table(const route::MeshRouting& routing);
  /// Applies every fault edge scheduled at the current cycle.
  void process_fault_edges();
  /// Reroutes around the active fault set and swaps tables (immediately
  /// under kDropRetransmit; kDrainThenSwap defers via pending_routing_).
  void apply_fault_epoch();
  /// Swaps the live tables for `pending_routing_`, purging and
  /// retransmitting in-flight victims under kDropRetransmit.
  void perform_swap();
  /// True while some node holds a claimed NI VC (a packet mid-injection);
  /// drain-then-swap must wait for these even at zero in-network flits.
  [[nodiscard]] bool injection_in_progress() const;
  /// Removes every flit of `victims` (by packet id) from the source queues,
  /// NI pipelines, router buffers and channels, restoring credits.
  void purge_packets(const std::vector<char>& victims);
  /// VC index range [lo, hi) available to a packet with the given
  /// orientation: the full range under pure DOR, a half under O1TURN.
  [[nodiscard]] std::pair<int, int> vc_class(bool y_first) const;
  void inject(int node);
  void allocate(int router);
  void arbitrate(int router);
  void deliver_channel_arrivals();
  void deliver_credits();
  /// Calls f(router) for every router whose bit is set in `routers`, in
  /// ascending order; routers with a clear bit cost nothing.
  template <class F>
  static void for_each_router_in(const std::vector<std::uint64_t>& routers,
                                 F&& f);
  static void set_router_bit(std::vector<std::uint64_t>& routers, int router,
                             bool on);
  /// Cycle from which the front flit of input VC `vc` may request the
  /// switch (a virtual-express bypass skips the front pipeline stages).
  [[nodiscard]] long effective_ready(int vc) const {
    const long ready = front_flit(vc).ready_cycle;
    return vc_bypass_[static_cast<std::size_t>(vc)]
               ? ready - (config_.pipeline_stages - 1)
               : ready;
  }
  /// Recomputes the unrouted-router bit of `router` from its VC masks.
  void refresh_unrouted(int router);
  /// Sizes every VC's flit ring to min(VC depth, longest packet).
  void layout_vc_rings(int longest_packet_flits);
  /// Appends `f` to input VC `slot` of `router` (credit-checked upstream).
  void push_flit(int router, int slot, const Flit& f);
  /// Removes and returns the front flit of input VC `slot` of `router`.
  Flit pop_flit(int router, int slot);
  [[nodiscard]] const Flit& front_flit(int vc) const {
    return flit_buf_[static_cast<std::size_t>(
        buf_off_[static_cast<std::size_t>(vc)] +
        buf_head_[static_cast<std::size_t>(vc)])];
  }
  void set_active(int router, int slot, bool on);
  /// Returns input VC `slot` of `router` to the unowned, unrouted state.
  void release_vc(int router, int slot);
  void push_channel(int ch, long arrival, const Flit& f);
  /// XLP_CHECK_SIM=1: recomputes every incremental structure from a full
  /// scan and fails on the first mismatch (see docs/simulator.md).
  void check_invariants() const;
  /// XLP_CHECK_SIM=1: the winner the full quadratic slot scan picks for
  /// `out` must be the request-list winner `chosen` (-1 for none).
  void check_arbitration(int router, int out, long epoch, int chosen,
                         int requests) const;
  [[nodiscard]] bool in_measurement_window() const noexcept {
    return cycle_ >= config_.warmup_cycles &&
           cycle_ < config_.warmup_cycles + config_.measure_cycles;
  }
  [[nodiscard]] SimStats finalize() const;
  /// Appends one sample per telemetry series to config_.series for the
  /// window ending at the current cycle.
  void record_series();
  /// Emits the `sim.channel_utilization` heatmap for a finished run.
  void emit_channel_heatmap(const SimStats& stats) const;

  const Network& net_;
  SimConfig config_;
  Rng rng_;
  traffic::Injection injection_;

  // Fault-injection state. With an empty schedule: faults_enabled_ is
  // false, routing_ stays &net_.routing() and none of the machinery below
  // runs, so behavior is identical to a fault-free simulator.
  bool faults_enabled_ = false;
  const route::MeshRouting* routing_;
  std::optional<route::MeshRouting> degraded_routing_;
  std::optional<route::MeshRouting> pending_routing_;  // drain-then-swap
  // (cycle, is_recovery, event index); recoveries sort before activations
  // at the same cycle so a replacement fault set takes over atomically.
  std::vector<std::tuple<long, int, std::size_t>> fault_edges_;
  std::size_t next_fault_edge_ = 0;
  std::vector<char> event_active_;
  fault::FaultSet active_faults_;
  std::vector<std::pair<int, int>> pending_unreachable_xy_;
  std::vector<std::pair<int, int>> pending_unreachable_yx_;
  // Per-hop routing under the live tables (the per-router next-hop tables
  // of Section 4.5.1): router r's w + h entries at r * (w + h) hold its
  // output port for a row segment toward column x (entry x) and for a
  // column segment toward row y (entry w + y); -1 where the target is
  // unreachable or is r's own column / row.
  std::vector<int> port_table_;
  std::vector<char> channel_dead_;   // [channel] under the live tables
  std::vector<int> extra_pipeline_;  // [router] port-degradation cycles
  bool draining_for_swap_ = false;
  long in_network_flits_ = 0;  // NI pipelines + router buffers + channels
  long last_ejection_cycle_ = -1;
  long reroutes_ = 0;
  long packets_dropped_ = 0;
  long packets_retransmitted_ = 0;
  long packets_lost_ = 0;
  long packets_unroutable_ = 0;

  long cycle_ = 0;
  std::vector<Packet> packets_;
  std::vector<NodeState> nodes_;

  // Router state as flat structure-of-arrays. Input VC `slot` (= port *
  // vcs + vc) of router r has the global index vc_base_[r] + slot; port p
  // of router r has the global index port_base_[r] + p.
  std::vector<int> vc_base_;    // [router], nodes + 1 entries
  std::vector<int> port_base_;  // [router], nodes + 1 entries
  std::vector<int> word_base_;  // [router] first 64-bit mask word
  std::vector<int> vc_depth_;   // [router] flits per input VC (credits)
  std::vector<int> ring_cap_;   // [router] ring slots per input VC
  // Per global input VC: a fixed-capacity ring of ring_cap_ flits inside
  // flit_buf_, plus the VC's reservation and route.
  std::vector<Flit> flit_buf_;
  std::vector<int> buf_off_;
  std::vector<int> buf_head_;
  std::vector<int> buf_size_;
  std::vector<char> vc_owned_;   // reserved by an upstream (or NI) packet
  std::vector<char> vc_bypass_;  // straight-through virtual-express hop
  std::vector<int> vc_out_port_;
  std::vector<int> vc_out_vc_;
  std::vector<int> vc_downstream_;  // global input VC fed by the grant; -1
                                    // when the flit ejects
  std::vector<long> vc_owner_;  // packet holding the reservation (fault
                                // purge must release owned-but-empty VCs)
  // Credits the sender feeding each global input VC holds for it: the
  // upstream router's output credits, or the NI's for port-0 VCs.
  std::vector<int> credits_;
  // Per-router bitmasks over slots: buffer non-empty, route + output VC
  // assigned. Live (requesting) VCs are nonempty & active.
  std::vector<std::uint64_t> nonempty_bits_;
  std::vector<std::uint64_t> active_bits_;
  std::vector<int> buffered_;  // [router] flits in its input buffers
  // Worklists. busy_routers_: bit r set iff buffered_[r] > 0 (switch
  // allocation). unrouted_routers_: bit r set iff router r buffers a VC
  // without a route (route computation + VC allocation).
  std::vector<std::uint64_t> busy_routers_;
  std::vector<std::uint64_t> unrouted_routers_;
  std::vector<int> rr_;  // [global port] round-robin pointer (a slot)
  // Per global port: the output channel, its wire length and the first
  // global input VC of the downstream port (-1 / 0 / -1 for the NI port).
  std::vector<int> port_out_channel_;
  std::vector<int> port_length_;
  std::vector<int> port_peer_vc_base_;

  // Per-channel in-flight flits: a ring of link length + 1 entries (one
  // grant per cycle, delivered on arrival), arrival cycles monotone.
  std::vector<Flit> chan_buf_;
  std::vector<long> chan_arrival_;
  std::vector<int> chan_off_;
  std::vector<int> chan_cap_;
  std::vector<int> chan_head_;
  std::vector<int> chan_size_;
  std::vector<int> chan_dst_vc_base_;  // global input VC of (dst port, vc 0)
  std::vector<int> busy_channels_;     // channels with flits in flight
  // Pending credit returns: (cycle, global input VC), cycles monotone.
  std::deque<std::pair<long, int>> credit_returns_;
  // Flits in flight from an NI into its router: (arrival cycle, node, flit).
  std::deque<std::tuple<long, int, Flit>> ni_arrivals_;
  // Measured packets created but not yet fully ejected.
  long outstanding_measured_ = 0;

  // Lifetime flit counters for the series recorder. Maintained
  // unconditionally: an increment on an already-hot line is cheaper than a
  // branch, and it keeps the recording-disabled path down to the single
  // `if (recording)` in run().
  long injected_flits_total_ = 0;
  long ejected_flits_total_ = 0;
  long grants_total_ = 0;
  // Series-window baselines, reset by record_series().
  long window_injected_ = 0;
  long window_ejected_ = 0;
  long window_grants_ = 0;
  long window_flit_cycles_ = 0;  // sum of in-network flits per cycle
  // Trace-driven injections: (create cycle, src, dst, bits), kept sorted.
  std::vector<std::tuple<long, int, int, int>> scheduled_;
  std::size_t next_scheduled_ = 0;

  // XLP_CHECK_SIM=1 cross-checks every cycle (read once at construction).
  bool check_ = false;
  long purged_flits_total_ = 0;

  // Arbitration scratch: the requests of the router being arbitrated, and
  // per input port the arbitration (epoch) that last granted it — one grant
  // per input port per cycle.
  std::vector<Request> requests_;
  std::vector<long> port_grant_epoch_;
  long arbitration_epoch_ = 0;

  // Measurement accumulators.
  long contention_cycles_ = 0;
  long grants_measured_ = 0;
  ActivityCounters activity_;
  std::vector<long> channel_flits_measured_;
};

}  // namespace xlp::sim
