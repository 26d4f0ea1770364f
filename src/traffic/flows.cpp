#include "traffic/flows.hpp"

#include <algorithm>
#include <tuple>

#include "util/check.hpp"

namespace xlp::traffic {

namespace {

bool pair_less(const Flow& a, const Flow& b) {
  return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
}

}  // namespace

Flows::Flows(int width, int height, std::vector<Flow> entries)
    : width_(width), height_(height) {
  XLP_REQUIRE(width >= 2 && height >= 2,
              "network dimensions must be at least 2");
  const int nodes = width * height;
  for (const Flow& f : entries) {
    XLP_REQUIRE(f.src >= 0 && f.src < nodes && f.dst >= 0 && f.dst < nodes,
                "node out of range");
    XLP_REQUIRE(f.rate >= 0.0, "rates must be non-negative");
    XLP_REQUIRE(f.src != f.dst, "self-traffic does not enter the network");
  }
  std::stable_sort(entries.begin(), entries.end(), pair_less);
  // Merge each pair's entries into its first, adding in input order.
  std::size_t kept = 0;
  for (const Flow& f : entries) {
    if (kept > 0 && entries[kept - 1].src == f.src &&
        entries[kept - 1].dst == f.dst)
      entries[kept - 1].rate += f.rate;
    else
      entries[kept++] = f;
  }
  entries.resize(kept);
  std::erase_if(entries, [](const Flow& f) { return f.rate <= 0.0; });
  flows_ = std::move(entries);
}

std::span<const Flow> Flows::sources(int first, int last) const {
  const auto begin = std::lower_bound(
      flows_.begin(), flows_.end(), first,
      [](const Flow& f, int src) { return f.src < src; });
  const auto end = std::lower_bound(
      begin, flows_.end(), last,
      [](const Flow& f, int src) { return f.src < src; });
  return {begin, end};
}

double Flows::total_rate() const {
  double total = 0.0;
  for (const Flow& f : flows_) total += f.rate;
  return total;
}

void Flows::fill(int src, std::span<double> row) const {
  XLP_REQUIRE(src >= 0 && src < width_ * height_, "node out of range");
  XLP_REQUIRE(row.size() == static_cast<std::size_t>(width_) * height_,
              "a row has one rate per node");
  std::fill(row.begin(), row.end(), 0.0);
  for (const Flow& f : sources(src, src + 1))
    row[static_cast<std::size_t>(f.dst)] = f.rate;
}

void Flows::row_block(int y, std::span<double> block) const {
  XLP_REQUIRE(y >= 0 && y < height_, "row out of range");
  XLP_REQUIRE(block.size() == static_cast<std::size_t>(width_) * width_,
              "a row block has width * width entries");
  std::fill(block.begin(), block.end(), 0.0);
  for (const Flow& f : sources(y * width_, (y + 1) * width_))
    block[static_cast<std::size_t>(f.src % width_) * width_ +
          f.dst % width_] += f.rate;
}

void Flows::col_block(int x, std::span<double> block) const {
  XLP_REQUIRE(x >= 0 && x < width_, "column out of range");
  XLP_REQUIRE(block.size() == static_cast<std::size_t>(height_) * height_,
              "a column block has height * height entries");
  std::fill(block.begin(), block.end(), 0.0);
  for (const Flow& f : flows_)
    if (f.dst % width_ == x)
      block[static_cast<std::size_t>(f.src / width_) * height_ +
            f.dst / width_] += f.rate;
}

Flows Flows::concentrate(int block) const {
  XLP_REQUIRE(block >= 1, "concentration block must be positive");
  XLP_REQUIRE(width_ % block == 0 && height_ % block == 0,
              "core grid must be a multiple of the concentration block");
  const int mw = width_ / block;
  const int mh = height_ / block;
  XLP_REQUIRE(mw >= 2 && mh >= 2,
              "concentrated network needs at least a 2x2 grid");
  std::vector<Flow> routers;
  for (const Flow& f : flows_) {
    const int sx = (f.src % width_) / block;
    const int sy = (f.src / width_) / block;
    const int dx = (f.dst % width_) / block;
    const int dy = (f.dst / width_) / block;
    if (sx == dx && sy == dy) continue;  // intra-tile: stays off-network
    routers.push_back({sy * mw + sx, dy * mw + dx, f.rate});
  }
  return Flows(mw, mh, std::move(routers));
}

Flows parsec_average(int n) {
  std::vector<DemandRows> models;
  for (const AppModel& model : parsec_models()) models.emplace_back(model, n);
  const auto count = static_cast<double>(models.size());
  const int nodes = n * n;
  std::vector<Flow> flows;
  std::vector<double> sum(static_cast<std::size_t>(nodes));
  std::vector<double> row(sum.size());
  for (int src = 0; src < nodes; ++src) {
    std::fill(sum.begin(), sum.end(), 0.0);
    for (const DemandRows& model : models) {
      model.fill(src, row);
      for (std::size_t dst = 0; dst < row.size(); ++dst)
        sum[dst] += row[dst] / count;
    }
    for (int dst = 0; dst < nodes; ++dst)
      if (sum[static_cast<std::size_t>(dst)] > 0.0)
        flows.push_back({src, dst, sum[static_cast<std::size_t>(dst)]});
  }
  return Flows(n, n, std::move(flows));
}

}  // namespace xlp::traffic
