#include "traffic/patterns.hpp"

#include <bit>

#include "util/check.hpp"
#include "util/numeric.hpp"

namespace xlp::traffic {

std::string to_string(Pattern p) {
  switch (p) {
    case Pattern::kUniformRandom: return "uniform_random";
    case Pattern::kTranspose: return "transpose";
    case Pattern::kBitReverse: return "bit_reverse";
    case Pattern::kBitComplement: return "bit_complement";
    case Pattern::kShuffle: return "shuffle";
    case Pattern::kTornado: return "tornado";
    case Pattern::kNeighbor: return "neighbor";
    case Pattern::kHotspot: return "hotspot";
  }
  XLP_CHECK(false, "unhandled pattern");
}

std::optional<Pattern> pattern_from_string(const std::string& name) {
  for (Pattern p :
       {Pattern::kUniformRandom, Pattern::kTranspose, Pattern::kBitReverse,
        Pattern::kBitComplement, Pattern::kShuffle, Pattern::kTornado,
        Pattern::kNeighbor, Pattern::kHotspot}) {
    if (to_string(p) == name) return p;
  }
  return std::nullopt;
}

const char* pattern_unfit(Pattern p, int n) {
  const bool bit_permutation = p == Pattern::kBitReverse ||
                               p == Pattern::kBitComplement ||
                               p == Pattern::kShuffle;
  if (bit_permutation && !is_power_of_two(static_cast<std::uint64_t>(n) * n))
    return "bit-permutation patterns need a power-of-two node count";
  if (p == Pattern::kTornado && n < 3)
    return "tornado sends every node to itself below n = 3";
  return nullptr;
}

namespace {

/// Bits of a node id under bit permutation `p` on an n x n network.
int id_bits(Pattern p, int n) {
  if (const char* unfit = pattern_unfit(p, n)) XLP_FAIL(unfit);
  return std::countr_zero(static_cast<unsigned>(n * n));
}

int reverse_bits(int value, int bits) {
  int out = 0;
  for (int i = 0; i < bits; ++i)
    if (value & (1 << i)) out |= 1 << (bits - 1 - i);
  return out;
}

}  // namespace

std::optional<int> pattern_destination(Pattern p, int src, int n) {
  XLP_REQUIRE(n >= 2, "network side must be at least 2");
  const int nodes = n * n;
  XLP_REQUIRE(src >= 0 && src < nodes, "source out of range");
  const int sx = src % n;
  const int sy = src / n;

  int dest = src;
  switch (p) {
    case Pattern::kUniformRandom:
    case Pattern::kHotspot:
      XLP_FAIL("uniform-random and hotspot are not permutations");
    case Pattern::kTranspose:
      dest = sx * n + sy;  // (x,y) -> (y,x)
      break;
    case Pattern::kBitReverse:
      dest = reverse_bits(src, id_bits(p, n));
      break;
    case Pattern::kBitComplement:
      id_bits(p, n);  // validates the power-of-two requirement
      dest = (~src) & (nodes - 1);
      break;
    case Pattern::kShuffle: {
      const int bits = id_bits(p, n);
      dest = ((src << 1) | (src >> (bits - 1))) & (nodes - 1);
      break;
    }
    case Pattern::kTornado: {
      // Shift by just under half the ring in each dimension.
      const int shift = (n + 1) / 2 - 1;
      dest = ((sy + shift) % n) * n + ((sx + shift) % n);
      break;
    }
    case Pattern::kNeighbor:
      dest = sy * n + ((sx + 1) % n);
      break;
  }
  if (dest == src) return std::nullopt;
  return dest;
}

}  // namespace xlp::traffic
