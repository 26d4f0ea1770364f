#pragma once

#include <array>

namespace xlp::latency {

/// One packet class: size in bits and its share of the traffic.
struct PacketClass {
  int bits = 0;
  double fraction = 0.0;
};

/// The mix of packet types on the network (Section 3: short packets for
/// read requests / write acks, long packets for read replies / write
/// requests). Serialization latency is the mix-weighted flit count
/// `sum_k p_k * ceil(S_k / b)` — ceil, because a packet smaller than one
/// flit still occupies a whole flit; this convention makes the model land
/// exactly on the paper's Table 2 mesh values.
struct PacketMix {
  /// The paper's mix (Section 5.1, after [19]): long 512-bit to short
  /// 128-bit packets in ratio 1:4. A sampled size walks these classes in
  /// order, so the short class comes first.
  static constexpr std::array<PacketClass, 2> kClasses{{{128, 0.8},
                                                        {512, 0.2}}};

  /// Flits needed for a `bits`-sized packet on links `flit_bits` wide.
  [[nodiscard]] static int flits_for(int bits, int flit_bits);

  /// Mix-averaged serialization latency in cycles on `flit_bits`-wide links.
  [[nodiscard]] static double serialization_cycles(int flit_bits);
};

}  // namespace xlp::latency
