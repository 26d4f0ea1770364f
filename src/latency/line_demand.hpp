#pragma once

#include <span>

namespace xlp::latency {

/// A workload's demand folded onto the lines XY routing uses (the 2D->1D
/// reduction of Section 4.2): a packet from (sx, sy) to (dx, dy) runs its row
/// segment sx -> dx in row sy and its column segment sy -> dy in column dx,
/// so the latency model needs only each line's share of the demand, never
/// the pairs. Every block holds non-negative entries, and all blocks of one
/// demand may carry a common positive scale factor: the model's averages are
/// ratios, so a uniform demand can be given as exact pair counts.
class LineDemand {
 public:
  LineDemand() = default;
  LineDemand(const LineDemand&) = default;
  LineDemand& operator=(const LineDemand&) = default;
  LineDemand(LineDemand&&) = default;
  LineDemand& operator=(LineDemand&&) = default;
  virtual ~LineDemand() = default;

  [[nodiscard]] virtual int width() const = 0;
  [[nodiscard]] virtual int height() const = 0;

  /// Row y's block A_y, width x width: block[sx * width + dx] is the demand
  /// from node (sx, y) to every node of column dx. Its diagonal carries the
  /// pairs without a row segment (same column, other row), so the sum of
  /// every row block is the whole off-diagonal demand.
  virtual void row_block(int y, std::span<double> block) const = 0;

  /// Column x's block B_x, height x height: block[sy * height + dy] is the
  /// demand from every node of row sy to node (x, dy). Its diagonal carries
  /// the pairs without a column segment.
  virtual void col_block(int x, std::span<double> block) const = 0;
};

/// One unit of demand on every ordered pair src != dst of a width x height
/// network, as exact pair counts: A_y(sx, dx) = height - [sx == dx] and
/// B_x(sy, dy) = width - [sy == dy].
class UniformDemand final : public LineDemand {
 public:
  UniformDemand(int width, int height);

  [[nodiscard]] int width() const override { return width_; }
  [[nodiscard]] int height() const override { return height_; }
  void row_block(int y, std::span<double> block) const override;
  void col_block(int x, std::span<double> block) const override;

 private:
  int width_;
  int height_;
};

}  // namespace xlp::latency
