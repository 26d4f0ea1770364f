#include "traffic/injection.hpp"

#include <algorithm>

#include "latency/packet_mix.hpp"
#include "util/check.hpp"

namespace xlp::traffic {

Injection::Injection(int nodes)
    : rate_(static_cast<std::size_t>(nodes), 0.0),
      first_(static_cast<std::size_t>(nodes) + 1, 0) {}

Injection::Injection(const Demand& demand)
    : Injection(demand.width() * demand.height()) {
  const auto nodes = rate_.size();
  std::vector<double> row(nodes);
  for (std::size_t src = 0; src < nodes; ++src) {
    demand.fill(static_cast<int>(src), row);
    std::size_t flows = 0;
    for (const double r : row) {
      XLP_REQUIRE(r >= 0.0, "rates must be non-negative");
      if (r > 0.0) {
        rate_[src] += r;
        ++flows;
      }
    }
    XLP_REQUIRE(row[src] == 0.0, "self-traffic does not enter the network");
    XLP_REQUIRE(rate_[src] <= 1.0,
                "per-node injection above one packet per cycle is not "
                "representable by Bernoulli injection");
    first_[src + 1] = first_[src] + flows;
  }
  share_.resize(first_.back());
  dst_.resize(first_.back());
  for (std::size_t src = 0; src < nodes; ++src) {
    if (first_[src] == first_[src + 1]) continue;
    demand.fill(static_cast<int>(src), row);
    double cum = 0.0;
    std::size_t flow = first_[src];
    for (std::size_t dst = 0; dst < nodes; ++dst) {
      if (row[dst] <= 0.0) continue;
      cum += row[dst] / rate_[src];
      share_[flow] = cum;
      dst_[flow++] = static_cast<int>(dst);
    }
    share_[flow - 1] = 1.0;  // guard against rounding
  }
}

Injection::Draw Injection::pick(int src, Rng& rng) const {
  const auto at = static_cast<std::size_t>(src);
  const auto begin = share_.begin() + static_cast<std::ptrdiff_t>(first_[at]);
  const auto end =
      share_.begin() + static_cast<std::ptrdiff_t>(first_[at + 1]);
  const int dst = dst_[static_cast<std::size_t>(
      std::lower_bound(begin, end, rng.uniform01()) - share_.begin())];
  const double u = rng.uniform01();
  double cum = 0.0;
  for (std::size_t k = 0; k + 1 < latency::PacketMix::kClasses.size(); ++k) {
    cum += latency::PacketMix::kClasses[k].fraction;
    if (u <= cum) return {dst, latency::PacketMix::kClasses[k].bits};
  }
  return {dst, latency::PacketMix::kClasses.back().bits};
}

}  // namespace xlp::traffic
