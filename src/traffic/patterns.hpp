#pragma once

#include <optional>
#include <string>

#include "util/rng.hpp"

namespace xlp::traffic {

/// Synthetic traffic patterns. UR, TP (transpose) and BR (bit-reverse) are
/// the patterns the paper evaluates in Section 5.4; the remainder are the
/// standard suite from Dally & Towles used by the extended benches.
enum class Pattern {
  kUniformRandom,
  kTranspose,
  kBitReverse,
  kBitComplement,
  kShuffle,
  kTornado,
  kNeighbor,
  kHotspot,
};

[[nodiscard]] std::string to_string(Pattern p);
[[nodiscard]] std::optional<Pattern> pattern_from_string(
    const std::string& name);

/// Why pattern `p` has no demand on an n x n network, or nullptr when it
/// has: the bit permutations need a power-of-two node count, and tornado's
/// shift is zero below n = 3, so every node would send to itself. The
/// demand generators and request validation share this one rule.
[[nodiscard]] const char* pattern_unfit(Pattern p, int n);

/// Destination of a packet injected at `src` on an n x n network (node ids
/// are y*n + x). For the deterministic permutation patterns the result is a
/// function of `src` alone and `rng` is unused; UniformRandom draws any node
/// != src; Hotspot sends 20% of packets to one of four fixed hub nodes and
/// the rest uniformly. Returns nullopt when the pattern maps `src` onto
/// itself (such sources inject no traffic, the usual convention).
///
/// The bit-permutation patterns (bit-reverse, bit-complement, shuffle)
/// require the node count n*n to be a power of two.
[[nodiscard]] std::optional<int> pattern_destination(Pattern p, int src,
                                                     int n, Rng& rng);

}  // namespace xlp::traffic
