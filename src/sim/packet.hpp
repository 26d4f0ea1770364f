#pragma once

#include <cstdint>
#include <vector>

namespace xlp::sim {

/// One network packet and its lifetime timestamps (-1 = not yet reached).
struct Packet {
  long id = -1;
  int src = 0;
  int dst = 0;
  int bits = 0;
  int flits = 0;
  long created = -1;   // cycle the source core produced it
  long injected = -1;  // cycle its head flit entered the source router
  long head_ejected = -1;  // cycle its head flit reached the destination NI
  long ejected = -1;   // cycle its tail flit reached the destination NI
  int hops = 0;        // links traversed by the head flit
  bool measured = false;  // created inside the measurement window
  bool y_first = false;   // routing orientation chosen at creation
  int retries = 0;        // retransmission attempts that produced this copy
  bool dropped = false;   // purged by a fault (a retransmitted copy, if any,
                          // is a separate packet preserving `created`)
  bool superseded = false;  // a retransmitted copy exists; statistics count
                            // the copy, not this entry
};

/// One flow-control unit. Flits travel by value; the owning packet is
/// looked up through `packet` (an index into the simulator's packet table).
struct Flit {
  long packet = -1;  // index into the packet table
  int seq = 0;       // 0-based position within the packet
  int dst = 0;       // destination node (copied for cheap route computation)
  bool is_head = false;
  bool is_tail = false;
  bool y_first = false;  // routing orientation (YX when true)

  // Per-hop bookkeeping, rewritten at each router.
  int vc = 0;            // virtual channel this flit occupies downstream
  long ready_cycle = 0;  // earliest cycle this flit may compete for the switch
};

}  // namespace xlp::sim
