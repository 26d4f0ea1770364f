#include "latency/packet_mix.hpp"

#include "util/check.hpp"
#include "util/numeric.hpp"

namespace xlp::latency {

int PacketMix::flits_for(int bits, int flit_bits) {
  XLP_REQUIRE(bits > 0, "packet size must be positive");
  XLP_REQUIRE(flit_bits > 0, "flit width must be positive");
  return static_cast<int>(ceil_div(bits, flit_bits));
}

double PacketMix::serialization_cycles(int flit_bits) {
  double total = 0.0;
  for (const PacketClass& pc : kClasses)
    total += pc.fraction * flits_for(pc.bits, flit_bits);
  return total;
}

}  // namespace xlp::latency
