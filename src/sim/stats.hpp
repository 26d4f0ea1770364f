#pragma once

#include <cstdint>
#include <vector>

#include "runctl/control.hpp"

namespace xlp::sim {

/// Flit-event counters accumulated over the measurement window; the power
/// model converts these into dynamic energy (activity x width).
struct ActivityCounters {
  long buffer_writes = 0;     // flits written into router input buffers
  long buffer_reads = 0;      // flits read out on a switch grant
  long crossbar_traversals = 0;  // flits through a crossbar (== grants)
  long link_flit_units = 0;   // sum over link traversals of flit * length
  long measured_cycles = 0;
  int flit_bits = 0;
};

/// End-of-run summary. Latencies are in cycles, measured from packet
/// creation to tail ejection (so they include source queuing and
/// serialization), which is what the paper's "average packet latency"
/// reports.
struct SimStats {
  long packets_offered = 0;    // created in the measurement window
  long packets_finished = 0;   // of those, ejected before the run ended
  long packets_ejected_in_window = 0;  // ejections inside the window

  double avg_latency = 0.0;        // creation -> tail ejection
  double avg_head_latency = 0.0;   // creation -> head ejection
  double max_latency = 0.0;
  double stddev_latency = 0.0;
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  /// Half-width of the 95% confidence interval on avg_latency from the
  /// method of batch means (10 batches over the measurement window); 0 when
  /// fewer than two batches carried packets.
  double ci95_latency = 0.0;

  /// Accepted throughput: packets ejected inside the measurement window
  /// per cycle per node.
  double throughput_packets_per_node_cycle = 0.0;
  /// Offered load for reference, same unit.
  double offered_packets_per_node_cycle = 0.0;

  double avg_hops = 0.0;  // links traversed per finished packet

  /// Average switch-allocation wait per flit grant beyond the pipeline
  /// minimum: the measured counterpart of the paper's per-hop contention
  /// delay Tc.
  double avg_contention_per_hop = 0.0;

  ActivityCounters activity;

  /// Flits that traversed each router-to-router channel during the
  /// measurement window, indexed like Network::channels(). Utilization of
  /// channel c is channel_flits[c] / measured_cycles (a channel carries at
  /// most one flit per cycle). Section 5.4's bandwidth-utilization
  /// discussion is reproduced from exactly this.
  std::vector<long> channel_flits;

  /// True when every measured packet drained before the run ended; if
  /// false the network was past saturation for this configuration.
  bool drained = true;

  /// kCompleted for a full warmup+measure+drain run; kDeadline /
  /// kInterrupted when SimConfig::control ended the run early. On an early
  /// stop the rate statistics are normalized over the cycles actually
  /// measured, and `drained == false` means "stopped before draining", not
  /// necessarily saturation.
  runctl::RunStatus status = runctl::RunStatus::kCompleted;

  /// Cycle of the last tail ejection (-1 when nothing ejected). Together
  /// with the in-flight count this distinguishes saturation (ejections
  /// continue to the end) from a fault-severed route (ejections stop).
  long last_ejection_cycle = -1;

  // Fault-injection outcome counters (lifetime, all zero without faults).
  long reroutes = 0;               // routing-table swaps performed
  long packets_dropped = 0;        // purged mid-flight by a fault
  long packets_retransmitted = 0;  // dropped packets re-sent by their source
  long packets_lost = 0;           // dropped with retries exhausted or no route
  long packets_unroutable = 0;     // refused at creation: no surviving route
};

}  // namespace xlp::sim
