#include "traffic/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "traffic/injection.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace xlp::traffic {

namespace {

/// The largest trace side load() accepts (Request's n range).
constexpr int kMaxSide = 256;

[[noreturn]] void bad_trace(const std::string& message) {
  throw Error(ErrorCode::kParse, message);
}

}  // namespace

Trace::Trace(int side, long duration_cycles, std::vector<TracePacket> packets)
    : Trace(side, side, duration_cycles, std::move(packets)) {}

Trace::Trace(int width, int height, long duration_cycles,
             std::vector<TracePacket> packets)
    : width_(width),
      height_(height),
      duration_(duration_cycles),
      packets_(std::move(packets)) {
  XLP_REQUIRE(width >= 2 && height >= 2,
              "network dimensions must be at least 2");
  XLP_REQUIRE(duration_cycles >= 1, "trace must span at least one cycle");
  const int nodes = width * height;
  long prev_cycle = 0;
  for (const TracePacket& p : packets_) {
    XLP_REQUIRE(p.cycle >= 0 && p.cycle < duration_,
                "packet cycle outside the trace duration");
    XLP_REQUIRE(p.cycle >= prev_cycle, "packets must be sorted by cycle");
    XLP_REQUIRE(p.src >= 0 && p.src < nodes && p.dst >= 0 && p.dst < nodes,
                "packet endpoint out of range");
    XLP_REQUIRE(p.src != p.dst, "self-directed packet in trace");
    XLP_REQUIRE(p.bits > 0, "packet size must be positive");
    prev_cycle = p.cycle;
  }
}

Trace Trace::sample(const Demand& demand, long cycles, Rng& rng) {
  const Injection injection(demand);
  const int nodes = demand.width() * demand.height();
  std::vector<TracePacket> packets;
  for (long cycle = 0; cycle < cycles; ++cycle)
    for (int src = 0; src < nodes; ++src)
      if (const auto packet = injection.draw(src, rng))
        packets.push_back({cycle, src, packet->dst, packet->bits});
  return Trace(demand.width(), demand.height(), cycles,
               std::move(packets));
}

int Trace::side() const {
  XLP_REQUIRE(width_ == height_, "side() called on a rectangular trace");
  return width_;
}

Flows Trace::observed() const {
  const double inv = 1.0 / static_cast<double>(duration_);
  std::vector<Flow> flows;
  flows.reserve(packets_.size());
  for (const TracePacket& p : packets_) flows.push_back({p.src, p.dst, inv});
  return Flows(width_, height_, std::move(flows));
}

double Trace::offered_per_node_cycle() const {
  return static_cast<double>(packets_.size()) /
         (static_cast<double>(duration_) * width_ * height_);
}

void Trace::save(std::ostream& os) const {
  os << "xlptrace " << width_ << ' ' << height_ << ' ' << duration_
     << '\n';
  os << "# cycle src dst bits\n";
  for (const TracePacket& p : packets_)
    os << p.cycle << ' ' << p.src << ' ' << p.dst << ' ' << p.bits << '\n';
}

Trace Trace::load(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) bad_trace("empty trace stream");
  std::istringstream header(line);
  std::string magic;
  int width = 0, height = 0;
  long duration = 0;
  header >> magic >> width >> height >> duration;
  // Each side within the request's n range, so width * height fits an
  // int. A replay keeps state per router and per channel, none per pair
  // of nodes.
  if (magic != "xlptrace" || width < 2 || width > kMaxSide || height < 2 ||
      height > kMaxSide || duration < 1)
    bad_trace("bad trace header: " + line);

  std::vector<TracePacket> packets;
  while (std::getline(is, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream row(line);
    TracePacket p;
    row >> p.cycle >> p.src >> p.dst >> p.bits;
    if (row.fail()) bad_trace("bad trace line: " + line);
    packets.push_back(p);
  }
  try {
    return Trace(width, height, duration, std::move(packets));
  } catch (const PreconditionError& e) {
    bad_trace(e.what());
  }
}

}  // namespace xlp::traffic
