#pragma once

#include <string>
#include <vector>

#include "topo/express_mesh.hpp"
#include "topo/row_topology.hpp"
#include "util/rng.hpp"

namespace xlp::fault {

/// Which dimension of the mesh a link belongs to.
enum class Dim { kRow, kCol };

/// One bidirectional link of an ExpressMesh: `index` selects the row (y for
/// kRow) or column (x for kCol), `link` its endpoints within that
/// RowTopology. Local links (length 1) are addressable too — placements
/// treat them as always present, but the fault model may kill them, which
/// is exactly the case that can sever a monotone routing direction.
/// Parallel duplicate express links share one physical channel in the
/// simulator, so a fault on a duplicated link kills every duplicate.
struct LinkId {
  Dim dim = Dim::kRow;
  int index = 0;
  topo::RowLink link;

  friend constexpr bool operator==(const LinkId&, const LinkId&) = default;
  /// Compact text form, e.g. "row3:(1,4)" or "col0:(2,3)".
  [[nodiscard]] std::string to_string() const;
};

/// Loss of a link. By default both directed channels die; clearing one of
/// the flags models a unidirectional driver failure.
struct LinkFault {
  LinkId id;
  bool forward = true;   // lo -> hi channel dead
  bool backward = true;  // hi -> lo channel dead
};

/// Router-port degradation: every flit arriving at `router` pays
/// `extra_cycles` additional pipeline cycles (a partially failed
/// port/arbiter running in a slow recovery mode). Routing is unaffected.
struct PortFault {
  int router = 0;
  int extra_cycles = 1;
};

/// A set of concurrent faults over one ExpressMesh. Value type; the
/// simulator's FaultSchedule activates and retires whole sets at scheduled
/// cycles, and fault::reroute() rebuilds routing tables around one.
class FaultSet {
 public:
  FaultSet() = default;

  void add(LinkFault f);
  void add(PortFault f);

  [[nodiscard]] bool empty() const noexcept {
    return links_.empty() && ports_.empty();
  }
  [[nodiscard]] const std::vector<LinkFault>& link_faults() const noexcept {
    return links_;
  }
  [[nodiscard]] const std::vector<PortFault>& port_faults() const noexcept {
    return ports_;
  }

  /// True when the directed channel from position `from` to position `to`
  /// within row/column `index` of dimension `dim` is dead.
  [[nodiscard]] bool kills(Dim dim, int index, int from, int to) const;

  /// Total extra pipeline cycles at `router` (0 when undegraded; multiple
  /// port faults on one router accumulate).
  [[nodiscard]] int extra_pipeline_cycles(int router) const;

  /// Removes every link fault on the given link; true when any was present.
  bool remove_link(const LinkId& id);

  /// Human-readable summary, e.g. "links[row3:(1,4)] ports[12:+2]".
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<LinkFault> links_;
  std::vector<PortFault> ports_;
};

/// All distinct bidirectional links of the design (duplicates collapse),
/// rows first then columns, in deterministic order. With `express_only`
/// local links are skipped.
[[nodiscard]] std::vector<LinkId> enumerate_links(
    const topo::ExpressMesh& mesh, bool express_only = false);

/// What the samplers may draw.
struct SampleOptions {
  /// Restrict the draw to express links (the long wires most exposed to
  /// faults). Designs without express links fall back to all links so a
  /// plain mesh can still be degraded.
  bool express_only = true;
  /// Kill a single uniformly chosen direction instead of both.
  bool directional = false;
};

/// k distinct random link losses, drawn without replacement. Deterministic
/// given the rng state; k is clamped to the number of candidate links.
[[nodiscard]] FaultSet sample_k_links(const topo::ExpressMesh& mesh, int k,
                                      Rng& rng,
                                      const SampleOptions& opts = {});

}  // namespace xlp::fault
