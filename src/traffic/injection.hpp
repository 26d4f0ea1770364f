#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "traffic/demand.hpp"
#include "util/rng.hpp"

namespace xlp::traffic {

/// Largest side a simulate request or `xlp trace` may take: Injection's
/// flow table holds one flow per pair with traffic, 16.7M flows (~200 MB)
/// for UR at 64. Evaluate and appspec read line blocks and are not bound by
/// it.
inline constexpr int kFlowTableMaxSide = 64;

/// Section 5.1's offered traffic, the one packet sampler the simulator and
/// Trace::sample share. Each node-cycle is a Bernoulli trial at the node's
/// rate; a packet then draws its destination in proportion to its source
/// row and its size from the paper's packet mix, in that order. It holds
/// one flow (cumulative share, destination) per positive-rate pair.
class Injection {
 public:
  /// One drawn packet.
  struct Draw {
    int dst;
    int bits;
  };

  /// No traffic at any of `nodes` nodes.
  explicit Injection(int nodes);

  /// Reads each source row of `demand` twice: once to size the flow table,
  /// once to fill it. Throws PreconditionError on a negative rate, on
  /// self-traffic, or on a node rate above one packet per cycle, which
  /// Bernoulli injection cannot represent.
  explicit Injection(const Demand& demand);

  /// True when no node ever creates a packet.
  [[nodiscard]] bool empty() const noexcept { return dst_.empty(); }

  /// One node-cycle at `src`: the packet it creates, if any.
  [[nodiscard]] std::optional<Draw> draw(int src, Rng& rng) const {
    const double rate = rate_[static_cast<std::size_t>(src)];
    if (rate <= 0.0 || !rng.bernoulli(rate)) return std::nullopt;
    return pick(src, rng);
  }

 private:
  /// Destination, then size, of a packet `src` creates.
  [[nodiscard]] Draw pick(int src, Rng& rng) const;

  std::vector<double> rate_;        ///< packets/cycle by node
  std::vector<std::size_t> first_;  ///< first flow by node, nodes + 1 entries
  std::vector<double> share_;       ///< flow's cumulative share of its node
  std::vector<int> dst_;            ///< flow's destination
};

}  // namespace xlp::traffic
