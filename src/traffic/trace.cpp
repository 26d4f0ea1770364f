#include "traffic/trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

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

Trace Trace::sample(const TrafficMatrix& demand,
                    const latency::PacketMix& mix, long cycles, Rng& rng) {
  XLP_REQUIRE(cycles >= 1, "trace must span at least one cycle");
  const int nodes = demand.node_count();

  // Per-node destination CDFs, as the simulator builds them.
  std::vector<double> node_rate(static_cast<std::size_t>(nodes), 0.0);
  std::vector<std::vector<std::pair<double, int>>> cdf(
      static_cast<std::size_t>(nodes));
  for (int src = 0; src < nodes; ++src) {
    node_rate[src] = demand.node_rate(src);
    if (node_rate[src] <= 0.0) continue;
    double cum = 0.0;
    for (int dst = 0; dst < nodes; ++dst) {
      const double r = demand.rate(src, dst);
      if (r <= 0.0) continue;
      cum += r / node_rate[src];
      cdf[src].emplace_back(cum, dst);
    }
    cdf[src].back().first = 1.0;
  }
  std::vector<double> mix_cdf;
  std::vector<int> mix_bits;
  {
    double cum = 0.0;
    for (const auto& pc : mix.classes()) {
      cum += pc.fraction;
      mix_cdf.push_back(cum);
      mix_bits.push_back(pc.bits);
    }
    mix_cdf.back() = 1.0;
  }

  std::vector<TracePacket> packets;
  for (long cycle = 0; cycle < cycles; ++cycle) {
    for (int src = 0; src < nodes; ++src) {
      if (node_rate[src] <= 0.0 || !rng.bernoulli(node_rate[src])) continue;
      const double u = rng.uniform01();
      const auto it = std::lower_bound(
          cdf[src].begin(), cdf[src].end(), u,
          [](const auto& entry, double v) { return entry.first < v; });
      const double w = rng.uniform01();
      int bits = mix_bits.back();
      for (std::size_t k = 0; k < mix_cdf.size(); ++k)
        if (w <= mix_cdf[k]) {
          bits = mix_bits[k];
          break;
        }
      packets.push_back({cycle, src, it->second, bits});
    }
  }
  return Trace(demand.width(), demand.height(), cycles,
               std::move(packets));
}

int Trace::side() const {
  XLP_REQUIRE(width_ == height_, "side() called on a rectangular trace");
  return width_;
}

TrafficMatrix Trace::empirical_matrix() const {
  TrafficMatrix m(width_, height_);
  const double inv = 1.0 / static_cast<double>(duration_);
  for (const TracePacket& p : packets_) m.add_rate(p.src, p.dst, inv);
  return m;
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
  // Each side within the request's n range: width * height then fits an
  // int, and a replay never builds a row of millions of routers.
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
