#include "traffic/matrix.hpp"

#include <algorithm>
#include <numeric>

#include "traffic/demand.hpp"
#include "util/check.hpp"

namespace xlp::traffic {

TrafficMatrix::TrafficMatrix(int n) : TrafficMatrix(n, n) {}

TrafficMatrix::TrafficMatrix(int width, int height)
    : width_(width), height_(height) {
  XLP_REQUIRE(width >= 2 && height >= 2,
              "network dimensions must be at least 2");
  rates_.assign(static_cast<std::size_t>(node_count()) * node_count(), 0.0);
}

int TrafficMatrix::side() const {
  XLP_REQUIRE(is_square(), "side() called on a rectangular matrix");
  return width_;
}

double TrafficMatrix::rate(int src, int dst) const {
  XLP_REQUIRE(src >= 0 && src < node_count() && dst >= 0 &&
                  dst < node_count(),
              "node out of range");
  return rates_[idx(src, dst)];
}

void TrafficMatrix::set_rate(int src, int dst, double packets_per_cycle) {
  XLP_REQUIRE(src >= 0 && src < node_count() && dst >= 0 &&
                  dst < node_count(),
              "node out of range");
  XLP_REQUIRE(packets_per_cycle >= 0.0, "rates must be non-negative");
  XLP_REQUIRE(src != dst || packets_per_cycle == 0.0,
              "self-traffic does not enter the network");
  rates_[idx(src, dst)] = packets_per_cycle;
}

void TrafficMatrix::add_rate(int src, int dst, double packets_per_cycle) {
  set_rate(src, dst, rate(src, dst) + packets_per_cycle);
}

void TrafficMatrix::set_row(int src, std::span<const double> row) {
  XLP_REQUIRE(src >= 0 && src < node_count(), "node out of range");
  XLP_REQUIRE(row.size() == static_cast<std::size_t>(node_count()),
              "a row has one rate per node");
  for (const double r : row)
    XLP_REQUIRE(r >= 0.0, "rates must be non-negative");
  XLP_REQUIRE(row[src] == 0.0, "self-traffic does not enter the network");
  std::copy(row.begin(), row.end(), rates_.begin() + idx(src, 0));
}

double TrafficMatrix::total_rate() const {
  return std::accumulate(rates_.begin(), rates_.end(), 0.0);
}

double TrafficMatrix::node_rate(int src) const {
  XLP_REQUIRE(src >= 0 && src < node_count(), "node out of range");
  double total = 0.0;
  for (int dst = 0; dst < node_count(); ++dst) total += rates_[idx(src, dst)];
  return total;
}

void TrafficMatrix::scale_total(double target) {
  XLP_REQUIRE(target >= 0.0, "target rate must be non-negative");
  const double current = total_rate();
  XLP_REQUIRE(current > 0.0, "cannot scale an all-zero matrix");
  const double factor = target / current;
  for (double& r : rates_) r *= factor;
}

TrafficMatrix TrafficMatrix::from_pattern(Pattern p, int n,
                                          double per_node_packets_per_cycle) {
  return DemandRows(p, n, per_node_packets_per_cycle).matrix();
}

TrafficMatrix TrafficMatrix::concentrate(int block) const {
  XLP_REQUIRE(block >= 1, "concentration block must be positive");
  XLP_REQUIRE(width_ % block == 0 && height_ % block == 0,
              "core grid must be a multiple of the concentration block");
  const int mw = width_ / block;
  const int mh = height_ / block;
  XLP_REQUIRE(mw >= 2 && mh >= 2,
              "concentrated network needs at least a 2x2 grid");
  TrafficMatrix routers(mw, mh);
  for (int src = 0; src < node_count(); ++src) {
    const int sx = (src % width_) / block;
    const int sy = (src / width_) / block;
    for (int dst = 0; dst < node_count(); ++dst) {
      const double r = rates_[idx(src, dst)];
      if (r <= 0.0) continue;
      const int dx = (dst % width_) / block;
      const int dy = (dst / width_) / block;
      if (sx == dx && sy == dy) continue;  // intra-tile: stays off-network
      routers.add_rate(sy * mw + sx, dy * mw + dx, r);
    }
  }
  return routers;
}

std::vector<double> TrafficMatrix::row_weights(int y) const {
  XLP_REQUIRE(y >= 0 && y < height_, "row out of range");
  std::vector<double> w(static_cast<std::size_t>(width_) * width_, 0.0);
  for (int a = 0; a < width_; ++a) {
    const int src = y * width_ + a;
    for (int dst = 0; dst < node_count(); ++dst) {
      const int b = dst % width_;
      if (b == a) continue;  // no row segment when x coordinates match
      w[static_cast<std::size_t>(a) * width_ + b] += rates_[idx(src, dst)];
    }
  }
  return w;
}

std::vector<double> TrafficMatrix::col_weights(int x) const {
  XLP_REQUIRE(x >= 0 && x < width_, "column out of range");
  std::vector<double> w(static_cast<std::size_t>(height_) * height_, 0.0);
  for (int v = 0; v < height_; ++v) {
    const int dst = v * width_ + x;
    for (int src = 0; src < node_count(); ++src) {
      const int u = src / width_;
      if (u == v) continue;  // no column segment when y coordinates match
      w[static_cast<std::size_t>(u) * height_ + v] += rates_[idx(src, dst)];
    }
  }
  return w;
}

}  // namespace xlp::traffic
