#pragma once

#include <iosfwd>
#include <vector>

#include "traffic/flows.hpp"
#include "util/rng.hpp"

namespace xlp::traffic {

/// One packet of a recorded (or generated) workload trace.
struct TracePacket {
  long cycle = 0;  // creation cycle
  int src = 0;
  int dst = 0;
  int bits = 0;

  friend constexpr bool operator==(const TracePacket&,
                                   const TracePacket&) = default;
};

/// An explicit packet trace for trace-driven simulation and for the
/// profile-then-specialize flow of Section 5.6.4 (the paper runs each
/// benchmark once on the baseline mesh to collect traffic statistics; here
/// the profiling run yields a Trace whose observed flows feed the
/// application-specific optimizer).
///
/// The text format is one packet per line, `cycle src dst bits`, with `#`
/// comments and a `xlptrace <width> <height> <duration>` header line.
class Trace {
 public:
  /// Square-network trace. Packets must be sorted by cycle (ties allowed);
  /// duration must cover every packet's cycle.
  Trace(int side, long duration_cycles, std::vector<TracePacket> packets);

  /// Rectangular-network trace.
  Trace(int width, int height, long duration_cycles,
        std::vector<TracePacket> packets);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  /// Routers per side; only valid for square traces (throws otherwise).
  [[nodiscard]] int side() const;
  [[nodiscard]] long duration() const noexcept { return duration_; }
  [[nodiscard]] const std::vector<TracePacket>& packets() const noexcept {
    return packets_;
  }

  /// Samples a trace from the process the simulator injects at this
  /// demand (traffic::Injection: one draw per node per cycle).
  static Trace sample(const Demand& demand, long cycles, Rng& rng);

  /// The measured long-run rates: packets per cycle for each pair that
  /// sent any, each packet's 1 / duration() added in packet order. This is
  /// the gamma_ij a profiling run observes, O(packets) at any side.
  [[nodiscard]] Flows observed() const;

  /// Total offered load in packets per node per cycle.
  [[nodiscard]] double offered_per_node_cycle() const;

  void save(std::ostream& os) const;
  /// Reads what save() writes. Throws xlp::Error(kParse) on a malformed
  /// header or line, a side outside [2, 256], or packets the constructor
  /// rejects.
  static Trace load(std::istream& is);

  friend bool operator==(const Trace&, const Trace&) = default;

 private:
  int width_;
  int height_;
  long duration_;
  std::vector<TracePacket> packets_;
};

}  // namespace xlp::traffic
