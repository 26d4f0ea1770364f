#include "util/rng.hpp"

namespace xlp {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& word : state_) word = splitmix64(x);
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) noexcept {
  // Lemire's multiply-then-reject method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

std::array<std::uint64_t, 4> Rng::state() const noexcept {
  return {state_[0], state_[1], state_[2], state_[3]};
}

void Rng::set_state(const std::array<std::uint64_t, 4>& words) noexcept {
  for (int i = 0; i < 4; ++i) state_[i] = words[static_cast<std::size_t>(i)];
}

Rng Rng::fork(std::uint64_t stream_id) noexcept {
  const std::uint64_t base = (*this)();
  // Mix the stream id so fork(0) and fork(1) are decorrelated.
  std::uint64_t x = base ^ (stream_id * 0xda942042e4dd58b5ULL + 1);
  return Rng(splitmix64(x));
}

}  // namespace xlp
