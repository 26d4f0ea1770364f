#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace xlp {

/// Deterministic, seedable pseudo-random generator (xoshiro256**).
///
/// Every stochastic component in the toolkit (simulated annealing, traffic
/// injection, application models) draws from an explicitly seeded Rng so
/// that experiments are reproducible bit-for-bit across runs and platforms.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state via SplitMix64, as recommended by the
  /// xoshiro authors; any 64-bit seed (including 0) yields a good stream.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses rejection
  /// sampling (Lemire) so the distribution is exactly uniform.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    // 53 top bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Forks an independent stream: deterministic function of this generator's
  /// current state and the stream id, without advancing this generator more
  /// than one step.
  Rng fork(std::uint64_t stream_id) noexcept;

  /// The four raw state words, for checkpointing. set_state() restores a
  /// generator to an exact earlier point so a resumed run draws the same
  /// stream bit-for-bit.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept;
  void set_state(const std::array<std::uint64_t, 4>& words) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace xlp
