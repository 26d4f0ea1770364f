#include "latency/line_demand.hpp"

#include "util/check.hpp"

namespace xlp::latency {

namespace {

/// A line's pair counts: `across` destinations (or sources) per end, less
/// the pair's own node on the diagonal.
void fill_counts(int size, int across, std::span<double> block) {
  XLP_REQUIRE(block.size() == static_cast<std::size_t>(size) * size,
              "a line block has size * size entries");
  for (int a = 0, i = 0; a < size; ++a)
    for (int b = 0; b < size; ++b, ++i)
      block[static_cast<std::size_t>(i)] = across - (a == b ? 1 : 0);
}

}  // namespace

UniformDemand::UniformDemand(int width, int height)
    : width_(width), height_(height) {
  XLP_REQUIRE(width >= 2 && height >= 2,
              "network dimensions must be at least 2");
}

void UniformDemand::row_block(int y, std::span<double> block) const {
  XLP_REQUIRE(y >= 0 && y < height_, "row out of range");
  fill_counts(width_, height_, block);
}

void UniformDemand::col_block(int x, std::span<double> block) const {
  XLP_REQUIRE(x >= 0 && x < width_, "column out of range");
  fill_counts(height_, width_, block);
}

}  // namespace xlp::latency
